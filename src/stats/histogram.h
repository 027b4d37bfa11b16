#pragma once
// Histograms used throughout the paper's figures: linear binning for the
// vote-count histogram (Fig. 2a), influence and cascade histograms (Fig. 3),
// and logarithmic binning for the user-activity plot (Fig. 2b).

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace digg::stats {

/// One histogram bin: [lo, hi) with a count.
struct Bin {
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t count = 0;
};

/// Fixed-width linear histogram over [min, max). Values outside the range are
/// clamped into the first/last bin so totals are preserved (the paper's
/// histograms include saturated tails).
class LinearHistogram {
 public:
  LinearHistogram(double min, double max, std::size_t bin_count);

  void add(double value);
  void add_many(const std::vector<double>& values);

  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_width() const noexcept { return width_; }
  [[nodiscard]] Bin bin(std::size_t i) const;
  [[nodiscard]] std::vector<Bin> bins() const;

 private:
  double min_;
  double max_;
  double width_;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> counts_;
};

/// Logarithmic histogram over positive integers: bin i covers
/// [base^i, base^(i+1)). Used for heavy-tailed activity distributions where
/// linear bins are useless (Fig. 2b is plotted log-log).
class LogHistogram {
 public:
  explicit LogHistogram(double base = 2.0);

  void add(std::uint64_t value);  // values of 0 are counted in a special bin
  [[nodiscard]] std::uint64_t zeros() const noexcept { return zeros_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::vector<Bin> bins() const;

 private:
  double base_;
  std::uint64_t zeros_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> counts_;  // index = floor(log_base(value))
};

/// Exact integer frequency counter (value -> count), for small-range counts
/// such as cascade sizes 0..30 in Fig. 3b.
class FrequencyCounter {
 public:
  void add(std::int64_t value);
  [[nodiscard]] std::uint64_t count(std::int64_t value) const;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }
  [[nodiscard]] std::int64_t max_value() const;  // throws if empty
  /// (value, count) pairs in ascending value order.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::uint64_t>> items() const;

 private:
  std::map<std::int64_t, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace digg::stats
