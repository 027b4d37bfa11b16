#include "src/ml/c45.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/ml/flat_tree.h"
#include "src/stats/rng.h"

namespace digg::ml {
namespace {

Dataset numeric_dataset(std::vector<std::pair<double, std::size_t>> points) {
  Dataset d({"x"}, {"no", "yes"});
  for (const auto& [x, label] : points) d.add({x}, label);
  return d;
}

TEST(Entropy, KnownValues) {
  EXPECT_DOUBLE_EQ(entropy({}), 0.0);
  EXPECT_DOUBLE_EQ(entropy({4.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(entropy({5.0, 5.0}), 1.0);
  EXPECT_NEAR(entropy({1.0, 1.0, 1.0, 1.0}), 2.0, 1e-12);
}

TEST(DecisionTree, LearnsSimpleThreshold) {
  std::vector<std::pair<double, std::size_t>> points;
  for (int i = 0; i < 20; ++i) points.emplace_back(i, i < 10 ? 0 : 1);
  const DecisionTree tree = DecisionTree::train(numeric_dataset(points));
  EXPECT_EQ(tree.predict({3.0}), 0u);
  EXPECT_EQ(tree.predict({15.0}), 1u);
  EXPECT_EQ(tree.depth(), 1u);
  EXPECT_EQ(tree.node_count(), 3u);  // one split, two leaves
}

TEST(DecisionTree, ThresholdAtClassBoundaryMidpoint) {
  const DecisionTree tree = DecisionTree::train(
      numeric_dataset({{1, 0}, {2, 0}, {3, 0}, {7, 1}, {8, 1}, {9, 1}}));
  // Boundary between 3 and 7: split at 5.
  EXPECT_EQ(tree.predict({4.9}), 0u);
  EXPECT_EQ(tree.predict({5.1}), 1u);
}

TEST(DecisionTree, PureDatasetIsSingleLeaf) {
  const DecisionTree tree =
      DecisionTree::train(numeric_dataset({{1, 1}, {2, 1}, {3, 1}}));
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict({100.0}), 1u);
}

TEST(DecisionTree, TwoAttributeInteraction) {
  // Class = yes iff x > 5 AND y > 5 (needs a depth-2 tree).
  Dataset d({"x", "y"}, {"no", "yes"});
  stats::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    const double y = rng.uniform(0.0, 10.0);
    d.add({x, y}, (x > 5.0 && y > 5.0) ? 1 : 0);
  }
  const DecisionTree tree = DecisionTree::train(d);
  EXPECT_EQ(tree.predict({8.0, 8.0}), 1u);
  EXPECT_EQ(tree.predict({8.0, 2.0}), 0u);
  EXPECT_EQ(tree.predict({2.0, 8.0}), 0u);
  EXPECT_EQ(tree.predict({2.0, 2.0}), 0u);
  // Both attributes split somewhere in the tree.
  const std::string rendered = tree.render();
  EXPECT_NE(rendered.find("x <="), std::string::npos);
  EXPECT_NE(rendered.find("y <="), std::string::npos);
}

TEST(DecisionTree, MissingValueRoutedToMajorityBranch) {
  std::vector<std::pair<double, std::size_t>> points;
  for (int i = 0; i < 30; ++i) points.emplace_back(i, i < 20 ? 0 : 1);
  const DecisionTree tree = DecisionTree::train(numeric_dataset(points));
  // Majority of training mass sits below the threshold -> class 0.
  EXPECT_EQ(tree.predict({kMissing}), 0u);
}

TEST(DecisionTree, PruningCollapsesNoise) {
  // Labels independent of x: an unpruned tree would overfit; the pruned
  // tree should be (nearly) a single leaf.
  stats::Rng rng(11);
  std::vector<std::pair<double, std::size_t>> points;
  for (int i = 0; i < 100; ++i)
    points.emplace_back(rng.uniform(0.0, 1.0), rng.bernoulli(0.5) ? 1 : 0);
  C45Params pruned;
  pruned.prune = true;
  C45Params unpruned;
  unpruned.prune = false;
  const Dataset d = numeric_dataset(points);
  const DecisionTree a = DecisionTree::train(d, pruned);
  const DecisionTree b = DecisionTree::train(d, unpruned);
  EXPECT_LE(a.node_count(), b.node_count());
  EXPECT_LE(a.node_count(), 9u);  // binary splits: at most 5 leaves
}

TEST(DecisionTree, MinInstancesStopsSplitting) {
  std::vector<std::pair<double, std::size_t>> points;
  for (int i = 0; i < 20; ++i) points.emplace_back(i, i < 10 ? 0 : 1);
  C45Params params;
  params.min_instances = 15;  // cannot produce two branches of 15
  params.prune = false;
  const DecisionTree tree =
      DecisionTree::train(numeric_dataset(points), params);
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST(DecisionTree, PredictProbaIsDistribution) {
  std::vector<std::pair<double, std::size_t>> points;
  for (int i = 0; i < 20; ++i) points.emplace_back(i, i < 12 ? 0 : 1);
  const DecisionTree tree = DecisionTree::train(numeric_dataset(points));
  const auto proba = tree.predict_proba({3.0});
  ASSERT_EQ(proba.size(), 2u);
  EXPECT_NEAR(proba[0] + proba[1], 1.0, 1e-12);
  EXPECT_GT(proba[0], proba[1]);
}

TEST(DecisionTree, RenderShowsAttributeAndClassNames) {
  std::vector<std::pair<double, std::size_t>> points;
  for (int i = 0; i < 20; ++i) points.emplace_back(i, i < 10 ? 0 : 1);
  const DecisionTree tree = DecisionTree::train(numeric_dataset(points));
  const std::string out = tree.render();
  EXPECT_NE(out.find("x <="), std::string::npos);
  EXPECT_NE(out.find("no"), std::string::npos);
  EXPECT_NE(out.find("yes"), std::string::npos);
}

TEST(DecisionTree, RenderCountsMatchPaperStyle) {
  // A leaf with training errors renders as "(N/E)".
  std::vector<std::pair<double, std::size_t>> points;
  for (int i = 0; i < 50; ++i) points.emplace_back(i, i < 25 ? 0 : 1);
  points.emplace_back(3.0, 1);  // one mislabeled point below threshold
  C45Params params;
  params.prune = true;
  const DecisionTree tree =
      DecisionTree::train(numeric_dataset(points), params);
  EXPECT_NE(tree.render().find("/"), std::string::npos);
}

TEST(DecisionTree, RejectsBadTrainingInput) {
  Dataset empty({"x"}, {"no", "yes"});
  EXPECT_THROW(DecisionTree::train(empty), std::invalid_argument);
  Dataset d = numeric_dataset({{1, 0}, {2, 1}});
  C45Params params;
  params.min_instances = 0;
  EXPECT_THROW(DecisionTree::train(d, params), std::invalid_argument);
  params.min_instances = 2;
  params.confidence_factor = 0.0;
  EXPECT_THROW(DecisionTree::train(d, params), std::invalid_argument);
}

TEST(DecisionTree, PredictValidatesRow) {
  const DecisionTree tree = DecisionTree::train(
      numeric_dataset({{1, 0}, {2, 0}, {8, 1}, {9, 1}}));
  EXPECT_THROW(tree.predict({}), std::invalid_argument);
}

// FlatTree's fixed-depth descent must land on the same class as the
// pointer walk for every row, NaN rows (the missing-child route) included.
TEST(FlatTree, MatchesPointerWalkIncludingNaN) {
  stats::Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    // Train a real tree on noisy random data so depths and shapes vary.
    const std::size_t n_attrs =
        static_cast<std::size_t>(rng.uniform_int(2, 5));
    std::vector<std::string> attrs;
    for (std::size_t a = 0; a < n_attrs; ++a)
      attrs.emplace_back(1, static_cast<char>('a' + a));  // "a", "b", ...
    Dataset data(attrs, {"no", "yes"});
    for (int i = 0; i < 200; ++i) {
      std::vector<double> row(n_attrs);
      double score = 0.0;
      for (double& v : row) {
        v = rng.uniform(0.0, 10.0);
        score += v;
      }
      const bool label = score > 5.0 * static_cast<double>(n_attrs) ||
                         rng.uniform(0.0, 1.0) < 0.1;
      data.add(row, label ? 1 : 0);
    }
    const DecisionTree tree = DecisionTree::train(data);
    const FlatTree flat(tree);
    ASSERT_EQ(flat.node_count(), tree.node_count());

    const std::size_t n_rows =
        static_cast<std::size_t>(rng.uniform_int(1, 101));
    std::vector<double> rows(n_rows * n_attrs);
    for (std::size_t r = 0; r < n_rows; ++r)
      for (std::size_t a = 0; a < n_attrs; ++a)
        rows[r * n_attrs + a] =
            rng.uniform(0.0, 1.0) < 0.15
                ? std::numeric_limits<double>::quiet_NaN()
                : rng.uniform(-5.0, 15.0);

    std::vector<std::int32_t> want(n_rows);
    for (std::size_t r = 0; r < n_rows; ++r) {
      const std::vector<double> row(rows.begin() + r * n_attrs,
                                    rows.begin() + (r + 1) * n_attrs);
      want[r] = static_cast<std::int32_t>(tree.predict(row));
    }
    std::vector<std::int32_t> got(n_rows, -1);
    flat.predict_classes(rows.data(), n_rows, n_attrs, got.data());
    ASSERT_EQ(got, want) << "trial " << trial;
  }
}

}  // namespace
}  // namespace digg::ml
