#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "src/obs/exporter.h"
#include "src/obs/log.h"
#include "src/obs/recorder.h"
#include "src/obs/watchdog.h"

namespace digg::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::observe(double v) noexcept {
  // lower_bound: first bound >= v, so bucket i counts v <= bounds[i] as
  // documented (upper_bound would push an exact-bound hit one bucket up).
  const std::size_t idx =
      static_cast<std::size_t>(std::lower_bound(bounds_.begin(), bounds_.end(), v) -
                               bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) out.push_back(b.load(std::memory_order_relaxed));
  return out;
}

double Histogram::quantile(double q) const {
  return histogram_quantile(bounds_, bucket_counts(), q);
}

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0 || counts.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = static_cast<double>(cum + counts[i]);
    if (next >= rank) {
      // Overflow bucket: a log-bucketed histogram cannot resolve beyond its
      // last finite bound, so clamp there instead of inventing a value.
      if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double into = rank - static_cast<double>(cum);
      return lower + (upper - lower) * into / static_cast<double>(counts[i]);
    }
    cum += counts[i];
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

const std::vector<double>& default_latency_bounds_us() {
  static const std::vector<double>* bounds = [] {
    auto* v = new std::vector<double>();
    for (double b = 1.0; b <= 8.5e6; b *= 2.0) v->push_back(b);
    return v;
  }();
  return *bounds;
}

struct Registry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;

  /// Caller holds `mutex`. Maps iterate sorted, so the snapshot's
  /// sorted-sections contract falls out for free.
  MetricsSnapshot snapshot_locked() const {
    MetricsSnapshot snap;
    snap.counters.reserve(counters.size());
    for (const auto& [name, c] : counters)
      snap.counters.emplace_back(name, c->value());
    snap.gauges.reserve(gauges.size());
    for (const auto& [name, g] : gauges)
      snap.gauges.emplace_back(name, g->value());
    snap.histograms.reserve(histograms.size());
    for (const auto& [name, h] : histograms) {
      MetricsSnapshot::Hist hist;
      hist.name = name;
      hist.bounds = h->bounds();
      hist.counts = h->bucket_counts();
      hist.count = h->count();
      hist.sum = h->sum();
      snap.histograms.push_back(std::move(hist));
    }
    return snap;
  }
};

namespace {

void dump_metrics_at_exit() {
  const char* path = std::getenv("DIGG_METRICS");
  if (!path || *path == '\0') return;
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "obs: cannot write DIGG_METRICS=%s\n", path);
    return;
  }
  const std::string json = Registry::global().to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

// One-shot wiring of every env-activated telemetry surface, run the first
// time any instrument is created (i.e. before any instrumented code can
// produce data worth observing): the DIGG_METRICS exit dump, the
// DIGG_CRASH_REPORT signal handlers, the DIGG_METRICS_PORT exporter, and
// the DIGG_WATCHDOG_MS stall watchdog. Unwritable output paths (these two
// and the recorder's DIGG_TRACE export) warn here, at startup, instead of
// silently dropping output at exit.
void env_init_once() {
  static const bool initialized = [] {
    if (const char* path = std::getenv("DIGG_METRICS");
        path && *path != '\0') {
      warn_if_unwritable("DIGG_METRICS", path);
      std::atexit(dump_metrics_at_exit);
    }
    if (const char* path = std::getenv("DIGG_CRASH_REPORT");
        path && *path != '\0') {
      if (warn_if_unwritable("DIGG_CRASH_REPORT", path))
        install_crash_handlers(path);
    }
    warn_if_unwritable("DIGG_TRACE", std::getenv("DIGG_TRACE"));
    maybe_start_exporter_from_env();
    maybe_start_watchdog_from_env();
    return true;
  }();
  (void)initialized;
}

void append_json_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out.append(buf);
}

void append_json_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out.append(buf);
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
}

bool is_latency_name(std::string_view name) {
  return name.ends_with("_us") || name.ends_with("_ms");
}

}  // namespace

Registry::Impl* Registry::impl() {
  if (!impl_) impl_ = new Impl();
  return impl_;
}

const Registry::Impl* Registry::impl() const {
  if (!impl_) impl_ = new Impl();
  return impl_;
}

Counter& Registry::counter(std::string_view name) {
  env_init_once();
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mutex);
  auto it = im->counters.find(name);
  if (it == im->counters.end()) {
    it = im->counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  env_init_once();
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mutex);
  auto it = im->gauges.find(name);
  if (it == im->gauges.end()) {
    it = im->gauges.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  env_init_once();
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mutex);
  auto it = im->histograms.find(name);
  if (it == im->histograms.end()) {
    if (bounds.empty()) bounds = default_latency_bounds_us();
    it = im->histograms
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  const Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mutex);
  return im->snapshot_locked();
}

bool Registry::try_snapshot(MetricsSnapshot& out) const {
  const Impl* im = impl();
  std::unique_lock<std::mutex> lock(im->mutex, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  out = im->snapshot_locked();
  return true;
}

std::string render_metrics_json(const MetricsSnapshot& snap) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, name);
    out.push_back(':');
    append_json_uint(out, value);
  }
  // Gauges merge the registry's gauges with the derived tail-latency gauges
  // (`<hist>_p99` for *_us / *_ms histograms with data) through one sorted
  // map, so the sorted-keys contract holds for the combined section and a
  // real gauge always wins a name collision.
  std::map<std::string_view, double> gauges;
  std::vector<std::string> derived_names;  // keep string_views alive
  derived_names.reserve(snap.histograms.size());
  for (const MetricsSnapshot::Hist& h : snap.histograms) {
    if (h.count == 0 || !is_latency_name(h.name)) continue;
    derived_names.push_back(h.name + "_p99");
    gauges.emplace(derived_names.back(),
                   histogram_quantile(h.bounds, h.counts, 0.99));
  }
  for (const auto& [name, value] : snap.gauges)
    gauges.insert_or_assign(name, value);
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, name);
    out.push_back(':');
    append_json_number(out, value);
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const MetricsSnapshot::Hist& h : snap.histograms) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, h.name);
    out.append(":{\"count\":");
    append_json_uint(out, h.count);
    out.append(",\"sum\":");
    append_json_number(out, h.sum);
    out.append(",\"buckets\":[");
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.push_back('[');
      if (i < h.bounds.size()) {
        append_json_number(out, h.bounds[i]);
      } else {
        out.append("\"+inf\"");
      }
      out.push_back(',');
      append_json_uint(out, h.counts[i]);
      out.append("]");
    }
    out.append("]}");
  }
  out.append("}}");
  return out;
}

std::string Registry::to_json() const { return render_metrics_json(snapshot()); }

Registry& Registry::global() {
  // Leaked so instruments outlive every other static and atexit handler.
  static Registry* g = new Registry();
  return *g;
}

bool write_bench_report(const std::string& path, std::string_view name,
                        std::uint64_t seed, double wall_ms) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    log_error("obs", "cannot write bench report", {{"path", path}});
    return false;
  }
  std::string out = "{\"bench\":";
  append_json_string(out, name);
  out.append(",\"seed\":");
  append_json_uint(out, seed);
  out.append(",\"wall_ms\":");
  append_json_number(out, wall_ms);
  out.append(",\"metrics\":");
  out.append(Registry::global().to_json());
  out.append("}\n");
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return true;
}

bool warn_if_unwritable(const char* env_name, const char* path) {
  if (!path || *path == '\0') return false;
  // Probe with open-for-append: proves the path is creatable/writable
  // without truncating anything that already exists.
  if (std::FILE* f = std::fopen(path, "a")) {
    std::fclose(f);
    return true;
  }
  log_warn("obs", "output path is not writable; its output will be dropped",
           {{"env", env_name}, {"path", path}});
  return false;
}

}  // namespace digg::obs
