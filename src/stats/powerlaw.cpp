#include "src/stats/powerlaw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace digg::stats {

double hurwitz_zeta(double s, double q) {
  if (s <= 1.0) throw std::invalid_argument("hurwitz_zeta: s <= 1");
  if (q <= 0.0) throw std::invalid_argument("hurwitz_zeta: q <= 0");
  // Direct sum for the first terms, then Euler–Maclaurin tail correction.
  constexpr int kDirectTerms = 64;
  double sum = 0.0;
  for (int k = 0; k < kDirectTerms; ++k)
    sum += std::pow(q + static_cast<double>(k), -s);
  const double a = q + static_cast<double>(kDirectTerms);
  // Integral term + half endpoint + first derivative correction.
  sum += std::pow(a, 1.0 - s) / (s - 1.0);
  sum += 0.5 * std::pow(a, -s);
  sum += s / 12.0 * std::pow(a, -s - 1.0);
  return sum;
}

PowerLawFit fit_power_law(const std::vector<std::int64_t>& data,
                          std::int64_t x_min) {
  if (x_min < 1) throw std::invalid_argument("fit_power_law: x_min < 1");
  double log_sum = 0.0;
  std::size_t n = 0;
  for (std::int64_t x : data) {
    if (x >= x_min) {
      log_sum += std::log(static_cast<double>(x) /
                          (static_cast<double>(x_min) - 0.5));
      ++n;
    }
  }
  if (n == 0) throw std::invalid_argument("fit_power_law: no tail data");
  PowerLawFit fit;
  fit.x_min = x_min;
  fit.n_tail = n;
  // Degenerate tail (all observations equal to x_min) gives log_sum == 0.
  fit.alpha = (log_sum > 0.0)
                  ? 1.0 + static_cast<double>(n) / log_sum
                  : std::numeric_limits<double>::infinity();
  if (std::isfinite(fit.alpha))
    fit.ks_distance = ks_distance(data, fit.alpha, x_min);
  return fit;
}

double ks_distance(const std::vector<std::int64_t>& data, double alpha,
                   std::int64_t x_min) {
  std::vector<std::int64_t> tail;
  for (std::int64_t x : data)
    if (x >= x_min) tail.push_back(x);
  if (tail.empty()) throw std::invalid_argument("ks_distance: no tail data");
  std::sort(tail.begin(), tail.end());
  const double z = hurwitz_zeta(alpha, static_cast<double>(x_min));
  const auto n = static_cast<double>(tail.size());
  double max_d = 0.0;
  double model_cdf = 0.0;
  std::size_t i = 0;
  std::int64_t x = x_min;
  const std::int64_t x_max = tail.back();
  while (x <= x_max) {
    model_cdf += std::pow(static_cast<double>(x), -alpha) / z;
    while (i < tail.size() && tail[i] <= x) ++i;
    const double emp_cdf = static_cast<double>(i) / n;
    max_d = std::max(max_d, std::abs(emp_cdf - model_cdf));
    ++x;
  }
  return max_d;
}

}  // namespace digg::stats
