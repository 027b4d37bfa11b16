#pragma once
// Order statistics the benchmark reports: medians and the tail
// percentile rule (report the highest percentile that still has at least
// ten samples beyond it, so a tail figure never rests on one or two
// outliers).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the middle pair for an even count). 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile of `sorted` (ascending): the value at 1-based
/// rank ceil(pct/100 * n). `beyond` is the number of samples above that
/// rank. Requires a non-empty input.
struct Percentile {
  double pct = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
[[nodiscard]] Percentile percentile_sorted(const std::vector<double>& sorted,
                                           double pct);

/// The highest of p50, p90, p99, p99.9, p99.99 that leaves at least
/// `min_beyond` samples beyond it; nullopt when even p50 does not.
[[nodiscard]] std::optional<Percentile> highest_supported_percentile(
    std::vector<double> samples, std::size_t min_beyond = 10);

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

}  // namespace perfbench
