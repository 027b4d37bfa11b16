#include "src/ml/baseline.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/stats/rng.h"

namespace digg::ml {
namespace {

Dataset separable(std::size_t per_class = 20) {
  Dataset d({"x", "noise"}, {"no", "yes"});
  stats::Rng rng(5);
  for (std::size_t i = 0; i < per_class; ++i) {
    d.add({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}, 0);
    d.add({rng.uniform(2.0, 3.0), rng.uniform(0.0, 1.0)}, 1);
  }
  return d;
}

TEST(MajorityClassifier, PredictsDominantClass) {
  Dataset d({"x"}, {"no", "yes"});
  d.add({1.0}, 1);
  d.add({2.0}, 1);
  d.add({3.0}, 0);
  const MajorityClassifier m = MajorityClassifier::train(d);
  EXPECT_EQ(m.klass(), 1u);
  EXPECT_EQ(m.predict({42.0}), 1u);
}

TEST(MajorityClassifier, RejectsEmpty) {
  Dataset d({"x"}, {"no", "yes"});
  EXPECT_THROW(MajorityClassifier::train(d), std::invalid_argument);
}

TEST(DecisionStump, FindsDiscriminativeAttributeAndThreshold) {
  const Dataset d = separable();
  const DecisionStump s = DecisionStump::train(d);
  EXPECT_EQ(s.attribute(), 0u);
  EXPECT_GT(s.threshold(), 1.0);
  EXPECT_LT(s.threshold(), 2.0);
  EXPECT_EQ(s.predict({0.5, 0.9}), 0u);
  EXPECT_EQ(s.predict({2.5, 0.1}), 1u);
}

TEST(DecisionStump, MissingValueGetsMajority) {
  const Dataset d = separable();
  const DecisionStump s = DecisionStump::train(d);
  const std::size_t majority = d.majority_class();
  EXPECT_EQ(s.predict({kMissing, 0.5}), majority);
}

TEST(DecisionStump, ConstantLabelsAreTrivial) {
  Dataset d({"x"}, {"no", "yes"});
  d.add({1.0}, 1);
  d.add({2.0}, 1);
  const DecisionStump s = DecisionStump::train(d);
  EXPECT_EQ(s.predict({1.5}), 1u);
}

TEST(LogisticRegression, SeparatesLinearlySeparableData) {
  const Dataset d = separable(40);
  const LogisticRegression m = LogisticRegression::train(d);
  int correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i)
    if (m.predict(d.row(i)) == d.label(i)) ++correct;
  EXPECT_GT(correct, static_cast<int>(d.size() * 9 / 10));
}

TEST(LogisticRegression, ProbabilitiesOrdered) {
  const Dataset d = separable(40);
  const LogisticRegression m = LogisticRegression::train(d);
  EXPECT_LT(m.predict_proba({0.2, 0.5}), m.predict_proba({2.8, 0.5}));
  EXPECT_GE(m.predict_proba({0.2, 0.5}), 0.0);
  EXPECT_LE(m.predict_proba({2.8, 0.5}), 1.0);
}

TEST(LogisticRegression, WeightOnInformativeFeatureLarger) {
  const Dataset d = separable(50);
  const LogisticRegression m = LogisticRegression::train(d);
  ASSERT_EQ(m.weights().size(), 2u);
  EXPECT_GT(std::abs(m.weights()[0]), 3.0 * std::abs(m.weights()[1]));
}

TEST(LogisticRegression, HandlesMissingAsMean) {
  Dataset d({"x"}, {"no", "yes"});
  for (int i = 0; i < 10; ++i) {
    d.add({static_cast<double>(i)}, 0);
    d.add({static_cast<double>(i) + 20.0}, 1);
  }
  const LogisticRegression m = LogisticRegression::train(d);
  // Missing -> standardized 0 -> probability near the decision boundary.
  const double p = m.predict_proba({kMissing});
  EXPECT_GT(p, 0.2);
  EXPECT_LT(p, 0.8);
}

TEST(LogisticRegression, RejectsBadInput) {
  Dataset empty({"x"}, {"no", "yes"});
  EXPECT_THROW(LogisticRegression::train(empty), std::invalid_argument);
  Dataset three({"x"}, {"a", "b", "c"});
  three.add({1.0}, 0);
  EXPECT_THROW(LogisticRegression::train(three), std::invalid_argument);
}

TEST(TrainerAdapters, ProduceWorkingClassifiers) {
  const Dataset d = separable(25);
  for (const Trainer& trainer :
       {majority_trainer(), stump_trainer(), logistic_trainer()}) {
    const Classifier model = trainer(d);
    const std::size_t klass = model(d.row(0));
    EXPECT_LT(klass, 2u);
  }
  // The stump must beat majority on separable data.
  const Confusion stump = evaluate(stump_trainer()(d), d);
  const Confusion majority = evaluate(majority_trainer()(d), d);
  EXPECT_GT(stump.accuracy(), majority.accuracy());
}

}  // namespace
}  // namespace digg::ml
