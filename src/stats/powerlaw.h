#pragma once
// Power-law fitting for degree and activity distributions. The paper's §6
// discusses power-law degree distributions and their effect on epidemic
// thresholds; Fig. 2b's activity histograms are approximately power laws.
// We implement the discrete maximum-likelihood estimator (Clauset, Shalizi &
// Newman 2009) with a Kolmogorov–Smirnov goodness measure.

#include <cstdint>
#include <vector>

namespace digg::stats {

struct PowerLawFit {
  double alpha = 0.0;       // estimated exponent
  std::int64_t x_min = 1;   // lower cutoff used for the fit
  double ks_distance = 0.0; // KS distance between data and fitted CDF
  std::size_t n_tail = 0;   // number of observations >= x_min
};

/// Fits alpha by discrete MLE for a fixed x_min:
///   alpha ≈ 1 + n / sum(ln(x_i / (x_min - 0.5)))
/// Throws if no observations are >= x_min.
[[nodiscard]] PowerLawFit fit_power_law(const std::vector<std::int64_t>& data,
                                        std::int64_t x_min);

/// KS distance between the empirical tail CDF (x >= x_min) and the discrete
/// power-law CDF with the given alpha.
[[nodiscard]] double ks_distance(const std::vector<std::int64_t>& data,
                                 double alpha, std::int64_t x_min);

/// Hurwitz zeta ζ(s, q) by direct summation with tail integral correction;
/// s > 1. Used as the discrete power-law normalizer.
[[nodiscard]] double hurwitz_zeta(double s, double q);

}  // namespace digg::stats
