#include "src/stats/rng.h"

#include <algorithm>
#include <cmath>

namespace digg::stats {

ZipfSampler::ZipfSampler(std::size_t n, double s) : s_(s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n == 0");
  if (s < 0.0) throw std::invalid_argument("ZipfSampler: s < 0");
  cdf_.reserve(n);
  double acc = 0.0;
  for (std::size_t rank = 1; rank <= n; ++rank) {
    acc += std::pow(static_cast<double>(rank), -s);
    cdf_.push_back(acc);
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const auto idx = static_cast<std::size_t>(it - cdf_.begin());
  return std::min(idx, cdf_.size() - 1) + 1;
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  if (weights.empty())
    throw std::invalid_argument("DiscreteSampler: empty weights");
  cdf_.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("DiscreteSampler: negative weight");
    acc += w;
    cdf_.push_back(acc);
  }
  if (acc <= 0.0)
    throw std::invalid_argument("DiscreteSampler: all weights zero");
  for (double& c : cdf_) c /= acc;
}

std::size_t DiscreteSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const auto idx = static_cast<std::size_t>(it - cdf_.begin());
  return std::min(idx, cdf_.size() - 1);
}

}  // namespace digg::stats
