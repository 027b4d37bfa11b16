#include "src/stats/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace digg::stats {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i)
    if (a.uniform() != b.uniform()) ++differing;
  EXPECT_GT(differing, 0);
}

TEST(Rng, SeedAccessorReturnsSeed) {
  EXPECT_EQ(Rng(42).seed(), 42u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntThrowsOnInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(5, 2), std::invalid_argument);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(7);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliFrequencyNearP) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(13);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += static_cast<double>(rng.poisson(4.5));
  EXPECT_NEAR(acc / n, 4.5, 0.1);
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng rng(13);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, PoissonNegativeThrows) {
  Rng rng(13);
  EXPECT_THROW(rng.poisson(-1.0), std::invalid_argument);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(17);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.exponential(2.0);
  EXPECT_NEAR(acc / n, 0.5, 0.02);
}

TEST(Rng, ExponentialThrowsOnBadRate) {
  Rng rng(17);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, GeometricThrowsOutsideUnit) {
  Rng rng(17);
  EXPECT_THROW(rng.geometric(0.0), std::invalid_argument);
  EXPECT_THROW(rng.geometric(1.5), std::invalid_argument);
  EXPECT_EQ(rng.geometric(1.0), 0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(99);
  Rng forked = a.fork();
  // The fork must not replay the parent's stream.
  Rng b(99);
  (void)b.fork();
  int same = 0;
  for (int i = 0; i < 32; ++i)
    if (forked.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 32);
}

TEST(RngSplit, IndependentOfParentDrawOrder) {
  Rng parent(42);
  Rng before = parent.split(3);
  for (int i = 0; i < 100; ++i) (void)parent.uniform();
  Rng after = parent.split(3);
  for (int i = 0; i < 64; ++i)
    EXPECT_DOUBLE_EQ(before.uniform(), after.uniform());
}

TEST(RngSplit, DoesNotPerturbParent) {
  Rng a(42);
  Rng b(42);
  (void)a.split(9);
  (void)a.split(10);
  for (int i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngSplit, DistinctIndicesDiverge) {
  Rng parent(7);
  Rng s0 = parent.split(0);
  Rng s1 = parent.split(1);
  int differing = 0;
  for (int i = 0; i < 32; ++i)
    if (s0.uniform() != s1.uniform()) ++differing;
  EXPECT_GT(differing, 0);
}

TEST(RngSplit, SubstreamDiffersFromParentStream) {
  Rng parent(7);
  Rng sub = parent.split(0);
  Rng fresh(7);
  int differing = 0;
  for (int i = 0; i < 32; ++i)
    if (sub.uniform() != fresh.uniform()) ++differing;
  EXPECT_GT(differing, 0);
}

TEST(RngSplit, SameIndexSameSeedReproduces) {
  EXPECT_DOUBLE_EQ(Rng(11).split(5).uniform(), Rng(11).split(5).uniform());
}

TEST(RngSplit, ComposesWithFork) {
  // fork() keys a fresh substream root; split is then stable on the fork.
  Rng a(13);
  Rng base = a.fork();
  Rng s1 = base.split(2);
  for (int i = 0; i < 10; ++i) (void)base.uniform();
  Rng s2 = base.split(2);
  for (int i = 0; i < 32; ++i)
    EXPECT_DOUBLE_EQ(s1.uniform(), s2.uniform());
}

TEST(ZipfSampler, RanksWithinBounds) {
  Rng rng(1);
  ZipfSampler zipf(50, 1.0);
  for (int i = 0; i < 2000; ++i) {
    const auto r = zipf.sample(rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 50u);
  }
}

TEST(ZipfSampler, RankOneMostFrequent) {
  Rng rng(2);
  ZipfSampler zipf(20, 1.2);
  std::vector<int> counts(21, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_EQ(std::max_element(counts.begin() + 1, counts.end()) -
                counts.begin(),
            1);
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  Rng rng(4);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(11, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r = 1; r <= 10; ++r)
    EXPECT_NEAR(static_cast<double>(counts[r]) / n, 0.1, 0.015);
}

TEST(ZipfSampler, RejectsBadParameters) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -1.0), std::invalid_argument);
}

TEST(DiscreteSampler, RespectsWeights) {
  Rng rng(6);
  DiscreteSampler sampler({1.0, 0.0, 3.0});
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[sampler.sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(DiscreteSampler, RejectsDegenerateWeights) {
  EXPECT_THROW(DiscreteSampler({}), std::invalid_argument);
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(DiscreteSampler({1.0, -2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace digg::stats
