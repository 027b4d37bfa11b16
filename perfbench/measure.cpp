#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Percentile percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) throw std::invalid_argument("percentile: no samples");
  const std::size_t n = sorted.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return {pct, sorted[rank - 1], n - rank};
}

std::optional<Percentile> highest_supported_percentile(
    std::vector<double> samples, std::size_t min_beyond) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  std::optional<Percentile> best;
  for (const double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const Percentile p = percentile_sorted(samples, pct);
    if (p.beyond < min_beyond) break;
    best = p;
  }
  return best;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
