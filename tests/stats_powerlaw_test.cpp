#include "src/stats/powerlaw.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "src/stats/rng.h"

namespace digg::stats {
namespace {

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
