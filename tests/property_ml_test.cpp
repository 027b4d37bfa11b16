// Property suites for the learning stack: invariants that must hold across
// randomized datasets (seed-parameterized).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/ml/c45.h"
#include "src/ml/forest.h"
#include "src/ml/roc.h"
#include "src/stats/bootstrap.h"
#include "src/stats/rng.h"
#include "src/stats/summary.h"

namespace digg {
namespace {

class MlProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MlProperty,
                         ::testing::Values(3, 7, 11, 19, 23, 31, 43, 59));

ml::Dataset random_dataset(stats::Rng& rng, std::size_t n = 80) {
  ml::Dataset d({"x", "y"}, {"no", "yes"});
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    const double y = rng.uniform(0.0, 10.0);
    const bool label = rng.bernoulli(1.0 / (1.0 + std::exp(-(x - 5.0))));
    d.add({x, y}, label ? 1 : 0);
  }
  return d;
}

// C4.5 splits on thresholds, so any strictly monotone transform of a
// numeric attribute must leave predictions unchanged.
TEST_P(MlProperty, TreeInvariantUnderMonotoneTransform) {
  stats::Rng rng(GetParam());
  const ml::Dataset original = random_dataset(rng);
  ml::Dataset transformed({"x", "y"}, {"no", "yes"});
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double x = original.value(i, 0);
    transformed.add({std::exp(x / 3.0), original.value(i, 1)},
                    original.label(i));
  }
  const ml::DecisionTree a = ml::DecisionTree::train(original);
  const ml::DecisionTree b = ml::DecisionTree::train(transformed);
  stats::Rng probe(GetParam() + 1);
  for (int k = 0; k < 40; ++k) {
    const double x = probe.uniform(0.0, 10.0);
    const double y = probe.uniform(0.0, 10.0);
    EXPECT_EQ(a.predict({x, y}), b.predict({std::exp(x / 3.0), y}));
  }
}

TEST_P(MlProperty, TreePredictionsAreValidClasses) {
  stats::Rng rng(GetParam() * 5 + 1);
  const ml::Dataset d = random_dataset(rng);
  const ml::DecisionTree tree = ml::DecisionTree::train(d);
  stats::Rng probe(GetParam() + 2);
  for (int k = 0; k < 50; ++k) {
    const std::vector<double> row = {probe.uniform(-5.0, 15.0),
                                     probe.uniform(-5.0, 15.0)};
    EXPECT_LT(tree.predict(row), 2u);
    const auto proba = tree.predict_proba(row);
    EXPECT_NEAR(proba[0] + proba[1], 1.0, 1e-9);
    EXPECT_GE(proba[0], 0.0);
    EXPECT_GE(proba[1], 0.0);
  }
}

TEST_P(MlProperty, TreeTrainingAccuracyBeatsChanceOnSeparableData) {
  stats::Rng rng(GetParam() * 7 + 3);
  const ml::Dataset d = random_dataset(rng, 120);
  const ml::DecisionTree tree = ml::DecisionTree::train(d);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i)
    if (tree.predict(d.row(i)) == d.label(i)) ++correct;
  EXPECT_GT(correct, d.size() / 2);
}

TEST_P(MlProperty, RocAucInvariantUnderMonotoneScoreTransform) {
  stats::Rng rng(GetParam() * 11 + 5);
  std::vector<ml::Scored> scored;
  std::vector<ml::Scored> transformed;
  for (int i = 0; i < 60; ++i) {
    const double score = rng.uniform(0.0, 1.0);
    const bool positive = rng.bernoulli(score);  // informative scores
    scored.push_back({score, positive});
    transformed.push_back({std::atan(score * 4.0), positive});
  }
  // Guard: both classes must appear.
  bool has_pos = false;
  bool has_neg = false;
  for (const auto& s : scored) (s.positive ? has_pos : has_neg) = true;
  if (!has_pos || !has_neg) GTEST_SKIP();
  EXPECT_NEAR(ml::roc_auc(scored), ml::roc_auc(transformed), 1e-12);
}

TEST_P(MlProperty, RocAucWithinUnitInterval) {
  stats::Rng rng(GetParam() * 13 + 7);
  std::vector<ml::Scored> scored;
  for (int i = 0; i < 40; ++i)
    scored.push_back({rng.uniform(0.0, 1.0), rng.bernoulli(0.5)});
  bool has_pos = false;
  bool has_neg = false;
  for (const auto& s : scored) (s.positive ? has_pos : has_neg) = true;
  if (!has_pos || !has_neg) GTEST_SKIP();
  const double auc = ml::roc_auc(scored);
  EXPECT_GE(auc, 0.0);
  EXPECT_LE(auc, 1.0);
  EXPECT_GE(ml::pr_auc(scored), 0.0);
  EXPECT_LE(ml::pr_auc(scored), 1.0 + 1e-12);
}

TEST_P(MlProperty, ForestProbaAveragesTreeProbas) {
  stats::Rng rng(GetParam() * 17 + 9);
  const ml::Dataset d = random_dataset(rng, 60);
  stats::Rng train_rng(GetParam());
  ml::ForestParams params;
  params.tree_count = 7;
  stats::Rng reference_rng = train_rng;
  const ml::Forest forest = ml::Forest::train(d, params, train_rng);
  const std::vector<double> row = {5.0, 5.0};
  // The reference forest: tree t trains on a bag drawn from substream t of
  // one fork of the caller's generator.
  const stats::Rng base = reference_rng.fork();
  std::vector<double> manual(2, 0.0);
  for (std::size_t t = 0; t < params.tree_count; ++t) {
    stats::Rng tree_rng = base.split(t);
    std::vector<std::size_t> bag(d.size());
    for (std::size_t& idx : bag)
      idx = static_cast<std::size_t>(
          tree_rng.uniform_int(0, static_cast<std::int64_t>(d.size()) - 1));
    const auto p = ml::DecisionTree::train(d.subset(bag), params.tree)
                       .predict_proba(row);
    manual[0] += p[0];
    manual[1] += p[1];
  }
  const auto proba = forest.predict_proba(row);
  EXPECT_NEAR(proba[0], manual[0] / 7.0, 1e-12);
  EXPECT_NEAR(proba[1], manual[1] / 7.0, 1e-12);
}

TEST_P(MlProperty, BootstrapIntervalContainsPointEstimate) {
  stats::Rng rng(GetParam() * 19 + 11);
  std::vector<double> data;
  for (int i = 0; i < 60; ++i) data.push_back(rng.normal(3.0, 2.0));
  stats::Rng boot(GetParam() + 100);
  const stats::Interval ci = stats::bootstrap_mean_ci(data, 300, 0.95, boot);
  EXPECT_LE(ci.lo, ci.point);
  EXPECT_GE(ci.hi, ci.point);
}

}  // namespace
}  // namespace digg
