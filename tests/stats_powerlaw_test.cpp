#include "src/stats/powerlaw.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "src/stats/rng.h"

namespace digg::stats {
namespace {

/// The fits' data source: a discrete power law, P(k) ∝ k^(-alpha) for k in
/// [k_min, k_max], sampled by inverse CDF over a precomputed table.
class PowerLawSampler {
 public:
  PowerLawSampler(double alpha, std::int64_t k_min, std::int64_t k_max)
      : k_min_(k_min), k_max_(k_max) {
    if (k_min < 1) throw std::invalid_argument("PowerLawSampler: k_min < 1");
    if (k_max < k_min)
      throw std::invalid_argument("PowerLawSampler: k_max < k_min");
    if (alpha <= 0.0)
      throw std::invalid_argument("PowerLawSampler: alpha <= 0");
    double acc = 0.0;
    for (std::int64_t k = k_min; k <= k_max; ++k) {
      acc += std::pow(static_cast<double>(k), -alpha);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }

  [[nodiscard]] std::int64_t sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    const auto idx = static_cast<std::int64_t>(it - cdf_.begin());
    return k_min_ + std::min<std::int64_t>(idx, k_max_ - k_min_);
  }

 private:
  std::int64_t k_min_;
  std::int64_t k_max_;
  std::vector<double> cdf_;  // cumulative, normalized to 1 at the back
};

TEST(PowerLawSampler, SamplesWithinRange) {
  Rng rng(1);
  PowerLawSampler sampler(2.0, 1, 100);
  for (int i = 0; i < 2000; ++i) {
    const auto v = sampler.sample(rng);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 100);
  }
}

TEST(PowerLawSampler, HeavierTailForSmallerAlpha) {
  Rng rng1(5);
  Rng rng2(5);
  PowerLawSampler steep(3.0, 1, 1000);
  PowerLawSampler shallow(1.5, 1, 1000);
  double steep_sum = 0.0;
  double shallow_sum = 0.0;
  for (int i = 0; i < 5000; ++i) {
    steep_sum += static_cast<double>(steep.sample(rng1));
    shallow_sum += static_cast<double>(shallow.sample(rng2));
  }
  EXPECT_GT(shallow_sum, steep_sum);
}

TEST(PowerLawSampler, OnesDominateForSteepAlpha) {
  Rng rng(3);
  PowerLawSampler sampler(3.0, 1, 1000);
  int ones = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i)
    if (sampler.sample(rng) == 1) ++ones;
  // P(1) = 1/zeta(3) ~ 0.83 over a finite range.
  EXPECT_GT(static_cast<double>(ones) / n, 0.7);
}

TEST(PowerLawSampler, RejectsBadParameters) {
  EXPECT_THROW(PowerLawSampler(2.0, 0, 10), std::invalid_argument);
  EXPECT_THROW(PowerLawSampler(2.0, 10, 5), std::invalid_argument);
  EXPECT_THROW(PowerLawSampler(0.0, 1, 10), std::invalid_argument);
}

TEST(HurwitzZeta, MatchesRiemannZetaAtQ1) {
  // zeta(2) = pi^2/6, zeta(3) ~ 1.2020569...
  EXPECT_NEAR(hurwitz_zeta(2.0, 1.0), std::numbers::pi * std::numbers::pi / 6.0,
              1e-8);
  EXPECT_NEAR(hurwitz_zeta(3.0, 1.0), 1.2020569031595943, 1e-8);
}

TEST(HurwitzZeta, ShiftIdentity) {
  // zeta(s, q) = zeta(s, q+1) + q^-s.
  const double s = 2.5;
  const double q = 3.0;
  EXPECT_NEAR(hurwitz_zeta(s, q),
              hurwitz_zeta(s, q + 1.0) + std::pow(q, -s), 1e-10);
}

TEST(HurwitzZeta, RejectsBadArguments) {
  EXPECT_THROW(hurwitz_zeta(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(hurwitz_zeta(2.0, 0.0), std::invalid_argument);
}

TEST(FitPowerLaw, RecoversAlphaFromSyntheticData) {
  // The (x_min - 0.5) continuity correction in the discrete MLE is accurate
  // for x_min >= ~5 (Clauset et al.); sample with that cutoff.
  Rng rng(42);
  PowerLawSampler sampler(2.5, 5, 100000);
  std::vector<std::int64_t> data;
  for (int i = 0; i < 20000; ++i) data.push_back(sampler.sample(rng));
  const PowerLawFit fit = fit_power_law(data, 5);
  EXPECT_NEAR(fit.alpha, 2.5, 0.15);
  EXPECT_EQ(fit.n_tail, data.size());
}

TEST(FitPowerLaw, TailOnlyUsesValuesAboveXmin) {
  const std::vector<std::int64_t> data = {1, 1, 1, 5, 6, 7, 8, 9, 10};
  const PowerLawFit fit = fit_power_law(data, 5);
  EXPECT_EQ(fit.n_tail, 6u);
}

TEST(FitPowerLaw, ThrowsWithoutTailData) {
  EXPECT_THROW(fit_power_law({1, 2, 3}, 10), std::invalid_argument);
  EXPECT_THROW(fit_power_law({1, 2, 3}, 0), std::invalid_argument);
}

TEST(FitPowerLaw, ConstantTailGivesVerySteepAlpha) {
  // All observations at x_min: the continuity-corrected MLE gives
  // 1 + 1/ln(x_min/(x_min-0.5)) ~ 10.5 at x_min = 5 — extremely steep.
  const PowerLawFit fit = fit_power_law({5, 5, 5, 5, 5}, 5);
  EXPECT_TRUE(std::isfinite(fit.alpha));
  EXPECT_GT(fit.alpha, 8.0);
}

TEST(KsDistance, ZeroishForPerfectFit) {
  Rng rng(7);
  PowerLawSampler sampler(2.0, 1, 100000);
  std::vector<std::int64_t> data;
  for (int i = 0; i < 20000; ++i) data.push_back(sampler.sample(rng));
  const double d = ks_distance(data, 2.0, 1);
  EXPECT_LT(d, 0.02);
}

TEST(KsDistance, LargeForWrongAlpha) {
  Rng rng(7);
  PowerLawSampler sampler(2.0, 1, 100000);
  std::vector<std::int64_t> data;
  for (int i = 0; i < 5000; ++i) data.push_back(sampler.sample(rng));
  EXPECT_GT(ks_distance(data, 4.0, 1), 0.1);
}

}  // namespace
}  // namespace digg::stats
