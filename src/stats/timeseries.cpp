#include "src/stats/timeseries.h"

#include <algorithm>
#include <stdexcept>

namespace digg::stats {

void TimeSeries::append(double time_minutes, double value) {
  if (!times_.empty() && time_minutes < times_.back())
    throw std::invalid_argument("TimeSeries::append: time went backwards");
  times_.push_back(time_minutes);
  values_.push_back(value);
}

double TimeSeries::at(double time_minutes) const {
  if (times_.empty()) throw std::logic_error("TimeSeries::at: empty series");
  if (time_minutes <= times_.front()) return values_.front();
  if (time_minutes >= times_.back()) return values_.back();
  const auto it =
      std::lower_bound(times_.begin(), times_.end(), time_minutes);
  const auto hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  if (span <= 0.0) return values_[hi];
  const double frac = (time_minutes - times_[lo]) / span;
  return values_[lo] + frac * (values_[hi] - values_[lo]);
}

TimeSeries TimeSeries::resample(double horizon_minutes,
                                std::size_t points) const {
  if (points < 2) throw std::invalid_argument("TimeSeries::resample: points < 2");
  TimeSeries out;
  for (std::size_t i = 0; i < points; ++i) {
    const double t = horizon_minutes * static_cast<double>(i) /
                     static_cast<double>(points - 1);
    out.append(t, empty() ? 0.0 : at(t));
  }
  return out;
}

std::optional<double> TimeSeries::half_life(double from_minutes) const {
  if (empty()) return std::nullopt;
  const double v_from = at(from_minutes);
  const double v_final = values_.back();
  if (v_final <= v_from) return std::nullopt;
  const double target = v_from + (v_final - v_from) / 2.0;
  for (std::size_t i = 0; i < times_.size(); ++i) {
    if (times_[i] >= from_minutes && values_[i] >= target) {
      return times_[i] - from_minutes;
    }
  }
  return std::nullopt;
}

}  // namespace digg::stats
