#pragma once
// Summary statistics used by the figure reproductions: Fig. 4 plots the
// median and the trimmed spread (all values except the highest and lowest)
// of final votes grouped by in-network vote count.

#include <cstddef>
#include <vector>

namespace digg::stats {

/// Five-number-style summary of a sample. `trimmed_lo`/`trimmed_hi` drop the
/// single highest and lowest observation, matching the error bars of Fig. 4
/// ("median and width of the distribution ... except for the highest and
/// lowest values").
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double trimmed_lo = 0.0;
  double trimmed_hi = 0.0;
};

/// Computes the full summary. Returns a zeroed Summary for an empty sample.
[[nodiscard]] Summary summarize(std::vector<double> values);

/// Quantile by linear interpolation; q in [0,1]. Throws on empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] double stddev(const std::vector<double>& values);

/// Pearson correlation coefficient. Throws if sizes differ or n < 2.
[[nodiscard]] double pearson(const std::vector<double>& x,
                             const std::vector<double>& y);

/// Spearman rank correlation (average ranks on ties).
[[nodiscard]] double spearman(const std::vector<double>& x,
                              const std::vector<double>& y);

}  // namespace digg::stats
