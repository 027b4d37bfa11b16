#pragma once
// The benchmark's own span recorder. Spans are recorded around calls into
// the library's layers from benchmark code only (the library is timed from
// outside). Each span has a name, start, end, and the span that caused it;
// spans are kept in memory and written out when the benchmark ends.
//
// When the recorder is disabled (every end-to-end run), ScopedSpan costs one
// branch and records nothing.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint32_t id = 0;      // 1-based; 0 means "no span"
  std::uint32_t parent = 0;  // 0 for a root span
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }

  /// Opens a span under `parent` (0 = the calling thread's innermost open
  /// span, or a root when there is none). Returns its id, 0 when disabled.
  std::uint32_t begin(const char* name, std::uint32_t parent = 0);
  void end(std::uint32_t id);

  /// Every finished span so far.
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  void clear();

  /// Writes the spans as a Chrome trace-event JSON array.
  void write_chrome_trace(const std::string& path) const;

  static Tracer& global();

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // index id-1; end_ns 0 while open
};

/// RAII span on Tracer::global().
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint32_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  std::uint32_t id_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children's intervals are clipped to the
/// parent and merged, so overlapping children from several threads are not
/// counted twice). Indexed like `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<SpanRecord>& spans);

/// Per-name totals over the descendants of `root` (root excluded).
struct SpanTotals {
  std::size_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
[[nodiscard]] std::map<std::string, SpanTotals> totals_under(
    const std::vector<SpanRecord>& spans, std::uint32_t root);

/// Share of a root span's wall time that its descendant spans explain:
/// (root duration - root self time) / root duration.
[[nodiscard]] double explained_fraction(const std::vector<SpanRecord>& spans,
                                        std::uint32_t root);

/// Per-pass breakdown over every span named `root_name`: for each layer
/// span name, its total time per pass and per call, totals over all
/// passes, and each pass's explained fraction.
struct PassBreakdown {
  std::map<std::string, std::vector<double>> per_pass_ms;
  std::map<std::string, std::vector<double>> per_call_ms;
  std::map<std::string, SpanTotals> sum;
  std::vector<double> explained;
  double wall_ns = 0.0;  // summed root durations
};
[[nodiscard]] PassBreakdown breakdown(const std::vector<SpanRecord>& spans,
                                      const std::string& root_name);

}  // namespace perfbench
