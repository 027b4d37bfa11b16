#pragma once
// Time series of cumulative vote counts (Fig. 1). Stores (minute, value)
// knots and supports resampling, alignment to promotion time, and estimation
// of the saturation half-life (Wu & Huberman report ~1 day).

#include <cstdint>
#include <optional>
#include <vector>

namespace digg::stats {

/// Monotone cumulative count series sampled at non-decreasing times.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// Appends a sample; time must be >= the last appended time.
  void append(double time_minutes, double value);

  [[nodiscard]] std::size_t size() const noexcept { return times_.size(); }
  [[nodiscard]] bool empty() const noexcept { return times_.empty(); }
  [[nodiscard]] const std::vector<double>& times() const noexcept {
    return times_;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  /// Piecewise-linear interpolation; clamps outside the observed range.
  /// Throws if empty.
  [[nodiscard]] double at(double time_minutes) const;

  /// Resamples onto a regular grid [0, horizon] with `points` samples.
  [[nodiscard]] TimeSeries resample(double horizon_minutes,
                                    std::size_t points) const;

  /// Time (after `from_minutes`) at which the remaining growth halves:
  /// value(t) = v_from + (v_final - v_from)/2. Estimates the novelty-decay
  /// half-life of the post-promotion regime. Returns nullopt if the series
  /// never grows after `from_minutes`.
  [[nodiscard]] std::optional<double> half_life(double from_minutes) const;

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace digg::stats
