#include "src/stats/summary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace digg::stats {
namespace {

TEST(Summarize, EmptyGivesZeroedSummary) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summarize, SingleValue) {
  const Summary s = summarize({7.0});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_DOUBLE_EQ(s.trimmed_lo, 7.0);
  EXPECT_DOUBLE_EQ(s.trimmed_hi, 7.0);
}

TEST(Summarize, KnownSample) {
  const Summary s = summarize({4.0, 1.0, 3.0, 2.0, 5.0});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  // Trimmed range drops exactly the single extreme on each side (Fig. 4's
  // error bars).
  EXPECT_DOUBLE_EQ(s.trimmed_lo, 2.0);
  EXPECT_DOUBLE_EQ(s.trimmed_hi, 4.0);
}

TEST(Summarize, StddevMatchesManual) {
  const Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Quantile, MedianOfEvenSampleInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
}

TEST(Quantile, ExtremesAreMinMax) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 1.0), 3.0);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.1), std::invalid_argument);
}

TEST(MeanStddev, EdgeCases) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(Pearson, PerfectPositiveCorrelation) {
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegativeCorrelation) {
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(Pearson, RejectsDegenerateInput) {
  EXPECT_THROW(pearson({1, 2}, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(pearson({1}, {1}), std::invalid_argument);
  EXPECT_THROW(pearson({1, 1, 1}, {1, 2, 3}), std::invalid_argument);
}

TEST(Spearman, MonotoneNonlinearIsPerfect) {
  // y = x^3 is monotone: rank correlation 1 even though Pearson < 1.
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {1, 8, 27, 64, 125};
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Spearman, HandlesTiesWithAverageRanks) {
  const std::vector<double> x = {1, 2, 2, 3};
  const std::vector<double> y = {10, 20, 20, 30};
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

}  // namespace
}  // namespace digg::stats
