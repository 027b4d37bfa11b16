#pragma once
// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms, all lock-free on the hot path (plain atomics) and snapshotable
// to JSON. Instrumented layers fetch their instruments once (function-local
// static references are the common idiom) and update them unconditionally —
// an update is one or two relaxed atomic ops, cheap enough to leave on.
//
// Zero-perturbation contract: metrics record what a run did; nothing reads
// them back into computation, so numeric results are bit-identical with the
// registry populated or untouched.
//
// DIGG_METRICS=<path>: when set, the registry writes its JSON snapshot to
// <path> at process exit (registered the first time any instrument is
// created).

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace digg::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t by = 1) noexcept {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i], with
/// one implicit overflow bucket above the last bound. Tracks count and sum
/// (sum via CAS so the class only needs C++11 atomics). Bounds are fixed at
/// construction — latency histograms use default_latency_bounds_us().
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// histogram_quantile() over the live buckets — p50/p95/p99 helpers for
  /// gauges and reports. q in [0, 1].
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> bounds_;                    // ascending
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// 1us..~8.4s in powers of 2 — the default latency bucket layout.
[[nodiscard]] const std::vector<double>& default_latency_bounds_us();

/// Percentile estimate from bucketed counts, Prometheus histogram_quantile
/// style: find the bucket where the cumulative count crosses q * total and
/// interpolate linearly inside it (the first bucket interpolates from 0, the
/// overflow bucket clamps to the last finite bound — a log-bucketed histogram
/// cannot resolve beyond it). `counts` has bounds.size() + 1 entries, the
/// layout Histogram::bucket_counts() returns. Returns 0 when empty.
[[nodiscard]] double histogram_quantile(const std::vector<double>& bounds,
                                        const std::vector<std::uint64_t>& counts,
                                        double q);

/// Point-in-time copy of every instrument — the iteration surface shared by
/// the JSON snapshot, the Prometheus exporter (exporter.h), and the crash
/// reporter (recorder.h). Plain values, no atomics: safe to hand across
/// threads.
struct MetricsSnapshot {
  struct Hist {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  // bounds.size() + 1, overflow last
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // sorted
  std::vector<std::pair<std::string, double>> gauges;           // sorted
  std::vector<Hist> histograms;                                 // sorted
};

/// Renders a snapshot as the DIGG_METRICS JSON document. Latency histograms
/// (*_us / *_ms) additionally contribute a derived `<name>_p99` gauge so the
/// bench gate can gate tail latency, not just means.
[[nodiscard]] std::string render_metrics_json(const MetricsSnapshot& snap);

/// Named-instrument registry. Instruments are created on first request and
/// live for the process (references stay valid); requesting an existing name
/// returns the same instrument. Names are dotted paths ("runtime.chunks").
class Registry {
 public:
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// Empty bounds = default_latency_bounds_us(). Bounds are fixed by the
  /// first registration; later callers get the existing histogram.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<double> bounds = {});

  /// Copies every instrument's current value. One lock acquisition; the
  /// result is independent of the registry afterwards.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Lock-avoiding variant for the crash-report path: fails (returns false)
  /// instead of blocking when another thread holds the registry lock — a
  /// signal handler must never wait on a mutex its own thread may hold.
  [[nodiscard]] bool try_snapshot(MetricsSnapshot& out) const;

  /// JSON snapshot of every instrument:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{"count":..,
  /// "sum":..,"buckets":[[bound,count],...,["+inf",count]]}}}.
  /// Keys are sorted, so snapshots diff cleanly. Latency histograms also
  /// emit a derived `<name>_p99` gauge (see render_metrics_json).
  [[nodiscard]] std::string to_json() const;

  /// The process-wide registry all instrumented layers use. It is never
  /// destroyed, so neither is its Impl: instruments outlive every other
  /// static and atexit handler.
  [[nodiscard]] static Registry& global();

 private:
  Registry() = default;
  struct Impl;
  Impl* impl();
  const Impl* impl() const;
  mutable Impl* impl_ = nullptr;
};

/// Writes `{"bench":name,"seed":seed,"wall_ms":wall_ms,"metrics":<snapshot>}`
/// to `path` — the BENCH_<name>.json format shared by bench/common.h and
/// perf_micro. Returns false (and logs at error) when the file cannot be
/// written.
bool write_bench_report(const std::string& path, std::string_view name,
                        std::uint64_t seed, double wall_ms);

/// Probes `path` for writability (open-for-append) and emits a log_warn
/// naming `env_name` when it is not — output env vars (DIGG_METRICS,
/// DIGG_CRASH_REPORT, DIGG_TRACE, DIGG_LOG_FILE) must fail loudly at
/// startup, not silently drop their output at exit. Returns true when
/// writable; a null or empty path returns false without a warning.
bool warn_if_unwritable(const char* env_name, const char* path);

}  // namespace digg::obs
