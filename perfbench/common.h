#pragma once
// Shared pieces of the three workloads: run options, the result a run
// reports, scenario/corpus helpers, and the correctness digests.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/data/scenario.h"
#include "src/obs/metrics.h"
#include "src/stream/engine.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;  // scratch files; removed at exit
};

/// What one run reports. `failed` counts operations whose output did not
/// match its reference (or never arrived).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> table;  // human-readable per-layer rows

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void merge(const RunResult& other);
};

// Thread counts per workload (runtime::set_default_threads).
inline constexpr unsigned kReproduceThreads = 2;
inline constexpr unsigned kReplayThreads = 1;
inline constexpr unsigned kServeEngineThreads = 1;
inline constexpr unsigned kServeConnections = 2;

// Reference set-ups per reproduce run; its setup_s is their median.
inline constexpr int kSetupReps = 3;

// Corpora per replay and serve run. Per-vote cost depends on a corpus's
// shape (how many votes fall below the visibility horizon, and whose fans
// they reach), so one corpus per seed made those workloads' figures swing
// with the seed; summing over six damps that. Their setup_s is the median
// over the six corpus set-ups.
inline constexpr int kCorpora = 6;

/// Scenario seed of a run's corpus `j`: the run's seed itself for j = 0.
[[nodiscard]] std::uint64_t corpus_seed(std::uint64_t seed, int j);

/// The `legacy` scenario at `seed` (120k users, 1,100 stories).
[[nodiscard]] digg::data::ScenarioSpec legacy_scenario(std::uint64_t seed);

/// The fixed cross-validation rng every fig5 call in the benchmark uses.
[[nodiscard]] digg::stats::Rng fig5_rng(std::uint64_t seed);

/// Digest over every field of the four figure results a reproduce pass
/// produces; equal digests mean equal figures.
[[nodiscard]] std::uint64_t figures_digest(const digg::core::Fig3aResult& a,
                                           const digg::core::Fig3bResult& b,
                                           const digg::core::Fig4Result& c,
                                           const digg::core::Fig5Result& d);

/// Field-by-field equality of two stream results.
[[nodiscard]] bool same_result(const digg::stream::StreamResult& x,
                               const digg::stream::StreamResult& y);

/// Process VmHWM in MB (2^20 bytes); 0 when /proc is unavailable.
[[nodiscard]] double peak_rss_mb();

/// Bucket-count delta of a registry histogram between two reads, for
/// percentiles over one phase of the run.
struct HistogramWindow {
  explicit HistogramWindow(const std::string& name);
  /// Percentile (q in [0,1]) of the observations since construction.
  [[nodiscard]] double quantile(double q) const;

 private:
  digg::obs::Histogram* hist_;
  std::vector<std::uint64_t> start_;
};

/// Counter value delta since construction.
struct CounterWindow {
  explicit CounterWindow(const std::string& name);
  [[nodiscard]] double delta() const;

 private:
  digg::obs::Counter* counter_;
  std::uint64_t start_;
};

/// Seconds between two now_ns() readings.
[[nodiscard]] inline double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

/// Prints `what` and every value to stderr (the raw samples behind a
/// median, for the steadiness evidence).
void log_values(const char* what, const std::vector<double>& values);

/// Appends a formatted table row.
void add_row(RunResult& r, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Appends the span table of a traced breakdown (calls, total and self
/// time, self time's share of the traced passes' wall time).
void add_span_table(RunResult& r, const PassBreakdown& b);

// The workloads. run_* is the end-to-end run; trace_* is the workload's
// part of the traced sweep.
RunResult run_reproduce(const Options& opts);
RunResult run_replay(const Options& opts);
RunResult run_serve(const Options& opts);
RunResult trace_reproduce(const Options& opts);
RunResult trace_replay(const Options& opts);
RunResult trace_serve(const Options& opts);

}  // namespace perfbench
