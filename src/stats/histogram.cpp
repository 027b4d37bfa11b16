#include "src/stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace digg::stats {

LinearHistogram::LinearHistogram(double min, double max, std::size_t bin_count)
    : min_(min), max_(max) {
  if (!(max > min)) throw std::invalid_argument("LinearHistogram: max <= min");
  if (bin_count == 0)
    throw std::invalid_argument("LinearHistogram: bin_count == 0");
  counts_.assign(bin_count, 0);
  width_ = (max - min) / static_cast<double>(bin_count);
}

void LinearHistogram::add(double value) {
  auto idx = static_cast<std::int64_t>(std::floor((value - min_) / width_));
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

void LinearHistogram::add_many(const std::vector<double>& values) {
  for (double v : values) add(v);
}

Bin LinearHistogram::bin(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("LinearHistogram::bin");
  return Bin{min_ + width_ * static_cast<double>(i),
             min_ + width_ * static_cast<double>(i + 1), counts_[i]};
}

std::vector<Bin> LinearHistogram::bins() const {
  std::vector<Bin> out;
  out.reserve(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) out.push_back(bin(i));
  return out;
}

LogHistogram::LogHistogram(double base) : base_(base) {
  if (!(base > 1.0)) throw std::invalid_argument("LogHistogram: base <= 1");
}

void LogHistogram::add(std::uint64_t value) {
  ++total_;
  if (value == 0) {
    ++zeros_;
    return;
  }
  const auto idx = static_cast<std::size_t>(
      std::floor(std::log(static_cast<double>(value)) / std::log(base_)));
  if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
  ++counts_[idx];
}

std::vector<Bin> LogHistogram::bins() const {
  std::vector<Bin> out;
  out.reserve(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out.push_back(Bin{std::pow(base_, static_cast<double>(i)),
                      std::pow(base_, static_cast<double>(i + 1)), counts_[i]});
  }
  return out;
}

void FrequencyCounter::add(std::int64_t value) {
  ++counts_[value];
  ++total_;
}

std::uint64_t FrequencyCounter::count(std::int64_t value) const {
  const auto it = counts_.find(value);
  return it == counts_.end() ? 0 : it->second;
}

std::int64_t FrequencyCounter::max_value() const {
  if (counts_.empty()) throw std::logic_error("FrequencyCounter: empty");
  return counts_.rbegin()->first;
}

std::vector<std::pair<std::int64_t, std::uint64_t>> FrequencyCounter::items()
    const {
  return {counts_.begin(), counts_.end()};
}

}  // namespace digg::stats
