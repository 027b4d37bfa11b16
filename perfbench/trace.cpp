#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "measure.h"

namespace perfbench {

namespace {
thread_local std::vector<std::uint32_t> tl_open;  // this thread's open spans
}  // namespace

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent) {
  if (!enabled_) return 0;
  if (parent == 0 && !tl_open.empty()) parent = tl_open.back();
  std::uint32_t id = 0;
  {
    std::lock_guard lock(mu_);
    spans_.push_back({0, parent, name, now_ns(), 0});
    id = static_cast<std::uint32_t>(spans_.size());
    spans_.back().id = id;
  }
  tl_open.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  if (id == 0) return;
  const std::int64_t t = now_ns();
  if (!tl_open.empty() && tl_open.back() == id) tl_open.pop_back();
  std::lock_guard lock(mu_);
  spans_[id - 1].end_ns = t;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mu_);
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : spans_)
    if (s.end_ns != 0) out.push_back(s);
  return out;
}

void Tracer::clear() {
  std::lock_guard lock(mu_);
  spans_.clear();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const std::vector<SpanRecord> all = spans();
  const std::int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}"
                 "%s\n",
                 s.name, static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, i + 1 < all.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
}

ScopedSpan::ScopedSpan(const char* name, std::uint32_t parent)
    : id_(Tracer::global().begin(name, parent)) {}

ScopedSpan::~ScopedSpan() { Tracer::global().end(id_); }

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::map<std::uint32_t, std::size_t> index;  // span id -> position
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const SpanRecord& p = spans[it->second];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) kids[it->second].push_back({a, b});
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_under(
    const std::vector<SpanRecord>& spans, std::uint32_t root) {
  std::map<std::uint32_t, std::uint32_t> parent_of;
  for (const SpanRecord& s : spans) parent_of[s.id] = s.parent;
  auto under_root = [&](std::uint32_t id) {
    for (std::uint32_t p = parent_of[id]; p != 0; p = parent_of[p])
      if (p == root) return true;
    return false;
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!under_root(spans[i].id)) continue;
    SpanTotals& t = out[spans[i].name];
    ++t.calls;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

double explained_fraction(const std::vector<SpanRecord>& spans,
                          std::uint32_t root) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id != root) continue;
    const auto wall = spans[i].end_ns - spans[i].start_ns;
    if (wall <= 0) return 0.0;
    return static_cast<double>(wall - self[i]) / static_cast<double>(wall);
  }
  return 0.0;
}

PassBreakdown breakdown(const std::vector<SpanRecord>& spans,
                        const std::string& root_name) {
  PassBreakdown b;
  for (const SpanRecord& s : spans) {
    if (root_name != s.name) continue;
    b.explained.push_back(explained_fraction(spans, s.id));
    b.wall_ns += static_cast<double>(s.end_ns - s.start_ns);
    for (const auto& [name, t] : totals_under(spans, s.id)) {
      const double ms = static_cast<double>(t.total_ns) / 1e6;
      b.per_pass_ms[name].push_back(ms);
      b.per_call_ms[name].push_back(ms / static_cast<double>(t.calls));
      SpanTotals& acc = b.sum[name];
      acc.calls += t.calls;
      acc.total_ns += t.total_ns;
      acc.self_ns += t.self_ns;
    }
  }
  return b;
}

}  // namespace perfbench
