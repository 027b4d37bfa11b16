#include "src/stats/summary.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace digg::stats {

namespace {

double sorted_quantile(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  if (n == 1) return sorted.front();
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::vector<double> ranks(const std::vector<double>& values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<double> out(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double avg_rank =
        (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) out[order[k]] = avg_rank;
    i = j + 1;
  }
  return out;
}

}  // namespace

Summary summarize(std::vector<double> values) {
  Summary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.n = values.size();
  s.min = values.front();
  s.max = values.back();
  s.mean = mean(values);
  s.stddev = stddev(values);
  s.median = sorted_quantile(values, 0.5);
  s.q1 = sorted_quantile(values, 0.25);
  s.q3 = sorted_quantile(values, 0.75);
  if (values.size() >= 3) {
    s.trimmed_lo = values[1];
    s.trimmed_hi = values[values.size() - 2];
  } else {
    s.trimmed_lo = s.min;
    s.trimmed_hi = s.max;
  }
  return s;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q outside [0,1]");
  std::sort(values.begin(), values.end());
  return sorted_quantile(values, q);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double stddev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("pearson: size mismatch");
  if (x.size() < 2) throw std::invalid_argument("pearson: n < 2");
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0)
    throw std::invalid_argument("pearson: zero variance");
  return sxy / std::sqrt(sxx * syy);
}

double spearman(const std::vector<double>& x, const std::vector<double>& y) {
  return pearson(ranks(x), ranks(y));
}

}  // namespace digg::stats
