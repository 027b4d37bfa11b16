#include "src/ml/validation.h"

#include <gtest/gtest.h>

#include "src/ml/c45.h"

namespace digg::ml {
namespace {

TEST(Confusion, CountsAndDerivedMetrics) {
  Confusion c;
  c.add(true, true);    // TP
  c.add(true, true);    // TP
  c.add(true, false);   // FN
  c.add(false, true);   // FP
  c.add(false, false);  // TN
  EXPECT_EQ(c.tp, 2u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.tn, 1u);
  EXPECT_EQ(c.total(), 5u);
  EXPECT_EQ(c.correct(), 3u);
  EXPECT_EQ(c.errors(), 2u);
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.6);
  EXPECT_DOUBLE_EQ(c.precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(c.recall(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(c.f1(), 2.0 / 3.0);
}

TEST(Confusion, ZeroDenominatorsGiveZero) {
  const Confusion c;
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(c.precision(), 0.0);
  EXPECT_DOUBLE_EQ(c.recall(), 0.0);
  EXPECT_DOUBLE_EQ(c.f1(), 0.0);
}

TEST(Confusion, ToStringUsesPaperNotation) {
  Confusion c;
  c.tp = 4;
  c.tn = 32;
  c.fp = 11;
  c.fn = 1;
  EXPECT_EQ(c.to_string(), "TP=4 TN=32 FP=11 FN=1");
}

Dataset binary_dataset(std::size_t n0, std::size_t n1) {
  Dataset d({"x"}, {"no", "yes"});
  for (std::size_t i = 0; i < n0; ++i)
    d.add({static_cast<double>(i)}, 0);
  for (std::size_t i = 0; i < n1; ++i)
    d.add({100.0 + static_cast<double>(i)}, 1);
  return d;
}

TEST(Evaluate, PerfectClassifier) {
  const Dataset d = binary_dataset(5, 5);
  const Confusion c = evaluate(
      [](const std::vector<double>& row) { return row[0] >= 100.0 ? 1u : 0u; },
      d);
  EXPECT_EQ(c.correct(), 10u);
  EXPECT_EQ(c.errors(), 0u);
}

TEST(Evaluate, AllPositiveClassifier) {
  const Dataset d = binary_dataset(6, 4);
  const Confusion c =
      evaluate([](const std::vector<double>&) { return 1u; }, d);
  EXPECT_EQ(c.tp, 4u);
  EXPECT_EQ(c.fp, 6u);
  EXPECT_EQ(c.tn, 0u);
}

TEST(Evaluate, RejectsNonBinary) {
  Dataset d({"x"}, {"a", "b", "c"});
  d.add({1.0}, 0);
  EXPECT_THROW(evaluate([](const std::vector<double>&) { return 0u; }, d),
               std::invalid_argument);
}

TEST(StratifiedFolds, PreservesClassProportions) {
  stats::Rng rng(1);
  const Dataset d = binary_dataset(40, 20);
  const auto folds = stratified_folds(d, 4, rng);
  std::vector<std::size_t> pos_per_fold(4, 0);
  std::vector<std::size_t> total_per_fold(4, 0);
  for (std::size_t i = 0; i < d.size(); ++i) {
    ++total_per_fold[folds[i]];
    if (d.label(i) == 1) ++pos_per_fold[folds[i]];
  }
  for (std::size_t f = 0; f < 4; ++f) {
    EXPECT_EQ(total_per_fold[f], 15u);
    EXPECT_EQ(pos_per_fold[f], 5u);
  }
}

TEST(StratifiedFolds, RejectsTooManyFolds) {
  stats::Rng rng(1);
  const Dataset d = binary_dataset(10, 2);
  EXPECT_THROW(stratified_folds(d, 3, rng), std::invalid_argument);
  EXPECT_THROW(stratified_folds(d, 1, rng), std::invalid_argument);
}

TEST(CrossValidate, PerfectlySeparableDataScoresHigh) {
  stats::Rng rng(2);
  const Dataset d = binary_dataset(30, 30);
  const Trainer trainer = [](const Dataset& train) {
    const DecisionTree tree = DecisionTree::train(train);
    return Classifier(
        [tree](const std::vector<double>& row) { return tree.predict(row); });
  };
  const CrossValidationResult result = cross_validate(trainer, d, 10, rng);
  EXPECT_EQ(result.per_fold.size(), 10u);
  EXPECT_EQ(result.pooled.total(), 60u);
  EXPECT_GT(result.pooled.accuracy(), 0.95);
}

TEST(CrossValidate, PooledCountsSumAcrossFolds) {
  stats::Rng rng(3);
  const Dataset d = binary_dataset(20, 20);
  const CrossValidationResult result =
      cross_validate([](const Dataset&) {
        return Classifier([](const std::vector<double>&) { return 1u; });
      }, d, 5, rng);
  EXPECT_EQ(result.pooled.tp, 20u);
  EXPECT_EQ(result.pooled.fp, 20u);
  std::size_t fold_total = 0;
  for (const Confusion& c : result.per_fold) fold_total += c.total();
  EXPECT_EQ(fold_total, result.pooled.total());
}

}  // namespace
}  // namespace digg::ml
