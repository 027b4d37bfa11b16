#pragma once
// ASCII rendering helpers shared by every bench binary: aligned tables for
// the paper's quoted statistics and bar charts for its histograms, so the
// reproduced figures are readable directly in terminal output.

#include <cstdint>
#include <string>
#include <vector>

#include "src/stats/histogram.h"

namespace digg::stats {

/// Column-aligned text table. Cells are strings; numeric formatting is the
/// caller's concern (see `fmt` helpers below).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Renders with a header underline and two-space column gaps.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision float formatting ("%.*f").
[[nodiscard]] std::string fmt(double value, int precision = 2);
[[nodiscard]] std::string fmt(std::int64_t value);
/// Percentage with one decimal, e.g. 0.357 -> "35.7%".
[[nodiscard]] std::string fmt_pct(double fraction);

/// Horizontal ASCII bar chart of histogram bins, labeled with bin ranges.
/// `max_width` is the width (in characters) of the longest bar.
[[nodiscard]] std::string render_bars(const std::vector<Bin>& bins,
                                      std::size_t max_width = 50);

/// Bar chart of (value, count) pairs (FrequencyCounter::items()).
[[nodiscard]] std::string render_bars(
    const std::vector<std::pair<std::int64_t, std::uint64_t>>& items,
    std::size_t max_width = 50);

/// Sparkline-style series rendering: one row per sample, value as a bar.
/// Used by the Fig. 1 time-series bench.
[[nodiscard]] std::string render_series(const std::vector<double>& times,
                                        const std::vector<double>& values,
                                        std::size_t max_width = 60);

}  // namespace digg::stats
