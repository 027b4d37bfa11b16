#include "common.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {

using namespace digg;

void RunResult::merge(const RunResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& [k, v] : other.metrics) metrics[k] = v;
  table.insert(table.end(), other.table.begin(), other.table.end());
}

std::uint64_t corpus_seed(std::uint64_t seed, int j) {
  return j == 0 ? seed : stats::splitmix64(seed + static_cast<std::uint64_t>(j));
}

data::ScenarioSpec legacy_scenario(std::uint64_t seed) {
  return data::make_scenario("legacy", seed);
}

stats::Rng fig5_rng(std::uint64_t seed) {
  return stats::Rng(stats::splitmix64(seed ^ 0xf15f15f15ULL));
}

namespace {

// FNV-1a over raw field bytes.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <class T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  template <class T>
  void vec(const std::vector<T>& v) {
    pod(v.size());
    for (const T& x : v) pod(x);
  }
  void freq(const stats::FrequencyCounter& f) {
    for (const auto& [value, count] : f.items()) {
      pod(value);
      pod(count);
    }
    pod(f.total());
  }
  void summary(const stats::Summary& s) {
    pod(s.n);
    for (const double d : {s.mean, s.stddev, s.min, s.max, s.median, s.q1,
                           s.q3, s.trimmed_lo, s.trimmed_hi})
      pod(d);
  }
  void confusion(const ml::Confusion& c) {
    pod(c.tp);
    pod(c.tn);
    pod(c.fp);
    pod(c.fn);
  }
  void groups(const std::vector<core::Fig4Group>& g) {
    pod(g.size());
    for (const auto& x : g) {
      pod(x.in_network_votes);
      summary(x.final_votes);
    }
  }
};

}  // namespace

std::uint64_t figures_digest(const core::Fig3aResult& a,
                             const core::Fig3bResult& b,
                             const core::Fig4Result& c,
                             const core::Fig5Result& d) {
  Digest h;
  h.vec(a.at_submission);
  h.vec(a.after_10);
  h.vec(a.after_20);
  h.pod(a.fraction_submitters_under_10_fans);
  h.pod(a.fraction_visible_to_200_after_10);
  h.freq(b.cascade_after_10);
  h.freq(b.cascade_after_20);
  h.freq(b.cascade_after_30);
  h.pod(b.frac_half_of_first10);
  h.pod(b.frac_10plus_after20);
  h.pod(b.frac_10plus_after30);
  h.groups(c.after_6);
  h.groups(c.after_10);
  h.groups(c.after_20);
  h.pod(c.spearman_v10_final);
  h.confusion(d.cross_validation.pooled);
  for (const auto& f : d.cross_validation.per_fold) h.confusion(f);
  h.pod(d.training_stories);
  h.confusion(d.holdout);
  h.pod(d.holdout_stories);
  h.pod(d.digg_promoted);
  h.pod(d.digg_promoted_interesting);
  h.pod(d.ours_predicted);
  h.pod(d.ours_predicted_interesting);
  return h.h;
}

bool same_result(const stream::StreamResult& x, const stream::StreamResult& y) {
  if (x.events_applied != y.events_applied ||
      x.stories.size() != y.stories.size())
    return false;
  for (std::size_t i = 0; i < x.stories.size(); ++i) {
    const stream::StoryOutcome& a = x.stories[i];
    const stream::StoryOutcome& b = y.stories[i];
    if (a.id != b.id || a.submitter != b.submitter || a.cascade != b.cascade ||
        a.influence != b.influence || a.fans1 != b.fans1 ||
        a.final_votes != b.final_votes || a.interesting != b.interesting ||
        a.predicted_interesting != b.predicted_interesting ||
        a.bayes_interesting != b.bayes_interesting ||
        std::memcmp(&a.bayes_expected_final, &b.bayes_expected_final,
                    sizeof(double)) != 0 ||
        a.promoted_time != b.promoted_time)
      return false;
  }
  return true;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
  }
  return 0.0;
}

HistogramWindow::HistogramWindow(const std::string& name)
    : hist_(&obs::Registry::global().histogram(name)),
      start_(hist_->bucket_counts()) {}

double HistogramWindow::quantile(double q) const {
  std::vector<std::uint64_t> now = hist_->bucket_counts();
  for (std::size_t i = 0; i < now.size(); ++i) now[i] -= start_[i];
  return obs::histogram_quantile(hist_->bounds(), now, q);
}

CounterWindow::CounterWindow(const std::string& name)
    : counter_(&obs::Registry::global().counter(name)),
      start_(counter_->value()) {}

double CounterWindow::delta() const {
  return static_cast<double>(counter_->value() - start_);
}

void log_values(const char* what, const std::vector<double>& values) {
  std::fprintf(stderr, "%s:", what);
  for (const double v : values) std::fprintf(stderr, " %.4g", v);
  std::fprintf(stderr, "\n");
}

void add_row(RunResult& r, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  r.table.emplace_back(buf);
}

void add_span_table(RunResult& r, const PassBreakdown& b) {
  add_row(r, "  %-36s %6s %12s %12s %7s", "span", "calls", "total ms",
          "self ms", "share");
  for (const auto& [name, t] : b.sum)
    add_row(r, "  %-36s %6zu %12.2f %12.2f %6.1f%%", name.c_str(), t.calls,
            static_cast<double>(t.total_ns) / 1e6,
            static_cast<double>(t.self_ns) / 1e6,
            100.0 * static_cast<double>(t.self_ns) / b.wall_ns);
}

}  // namespace perfbench
