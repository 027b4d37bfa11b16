#include "src/ml/forest.h"

#include <gtest/gtest.h>

#include "src/ml/validation.h"

namespace digg::ml {
namespace {

Dataset noisy_threshold_data(std::size_t n, double noise, std::uint64_t seed) {
  Dataset d({"x", "y"}, {"no", "yes"});
  stats::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    const double y = rng.uniform(0.0, 1.0);
    bool label = x > 0.5;
    if (rng.bernoulli(noise)) label = !label;
    d.add({x, y}, label ? 1 : 0);
  }
  return d;
}

TEST(Forest, LearnsSimpleBoundary) {
  const Dataset d = noisy_threshold_data(300, 0.0, 1);
  stats::Rng rng(2);
  const Forest f = Forest::train(d, {}, rng);
  EXPECT_EQ(f.size(), 25u);
  EXPECT_EQ(f.predict({0.9, 0.5}), 1u);
  EXPECT_EQ(f.predict({0.1, 0.5}), 0u);
}

TEST(Forest, ProbaIsDistributionAndOrdered) {
  const Dataset d = noisy_threshold_data(300, 0.1, 3);
  stats::Rng rng(4);
  const Forest f = Forest::train(d, {}, rng);
  const auto hi = f.predict_proba({0.95, 0.5});
  const auto lo = f.predict_proba({0.05, 0.5});
  EXPECT_NEAR(hi[0] + hi[1], 1.0, 1e-9);
  EXPECT_GT(hi[1], lo[1]);
}

TEST(Forest, EnsembleAtLeastMatchesSingleTreeOnNoisyData) {
  const Dataset train = noisy_threshold_data(200, 0.25, 5);
  const Dataset test = noisy_threshold_data(400, 0.0, 6);
  stats::Rng rng(7);
  ForestParams params;
  params.tree_count = 31;
  const Forest forest = Forest::train(train, params, rng);
  const DecisionTree single = DecisionTree::train(train);
  const Confusion forest_result = evaluate(
      [&](const std::vector<double>& row) { return forest.predict(row); },
      test);
  const Confusion single_result = evaluate(
      [&](const std::vector<double>& row) { return single.predict(row); },
      test);
  EXPECT_GE(forest_result.accuracy() + 0.03, single_result.accuracy());
  EXPECT_GT(forest_result.accuracy(), 0.8);
}

TEST(Forest, RejectsBadParameters) {
  const Dataset d = noisy_threshold_data(50, 0.0, 10);
  stats::Rng rng(1);
  ForestParams params;
  params.tree_count = 0;
  EXPECT_THROW(Forest::train(d, params, rng), std::invalid_argument);
  params.tree_count = 5;
  params.bag_fraction = 0.0;
  EXPECT_THROW(Forest::train(d, params, rng), std::invalid_argument);
  params.bag_fraction = 1.5;
  EXPECT_THROW(Forest::train(d, params, rng), std::invalid_argument);
  Dataset empty({"x"}, {"a", "b"});
  params.bag_fraction = 1.0;
  EXPECT_THROW(Forest::train(empty, params, rng), std::invalid_argument);
}

TEST(Forest, DeterministicGivenSeed) {
  const Dataset d = noisy_threshold_data(100, 0.2, 11);
  stats::Rng a(12);
  stats::Rng b(12);
  const Forest fa = Forest::train(d, {}, a);
  const Forest fb = Forest::train(d, {}, b);
  for (double x = 0.05; x < 1.0; x += 0.1) {
    EXPECT_EQ(fa.predict({x, 0.5}), fb.predict({x, 0.5}));
  }
}

TEST(ForestTrainer, WorksWithCrossValidation) {
  const Dataset d = noisy_threshold_data(120, 0.1, 13);
  stats::Rng rng(14);
  ForestParams params;
  params.tree_count = 9;
  const CrossValidationResult cv =
      cross_validate(forest_trainer(params, 99), d, 5, rng);
  EXPECT_GT(cv.pooled.accuracy(), 0.75);
}

}  // namespace
}  // namespace digg::ml
