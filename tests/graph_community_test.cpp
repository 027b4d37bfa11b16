#include "src/graph/community.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/graph/generators.h"

namespace digg::graph {
namespace {

// Two mutually-connected cliques of 5 joined by a single bridge edge.
Digraph two_cliques() {
  DigraphBuilder b;
  auto clique = [&](NodeId lo, NodeId hi) {
    for (NodeId u = lo; u <= hi; ++u)
      for (NodeId v = lo; v <= hi; ++v)
        if (u != v) b.add_follow(u, v);
  };
  clique(0, 4);
  clique(5, 9);
  b.add_follow(4, 5);
  return b.build();
}

std::size_t distinct_labels(std::vector<std::size_t> labels) {
  std::sort(labels.begin(), labels.end());
  return static_cast<std::size_t>(
      std::unique(labels.begin(), labels.end()) - labels.begin());
}

TEST(LabelPropagation, SeparatesTwoCliques) {
  stats::Rng rng(1);
  const auto labels = label_propagation(two_cliques(), rng);
  for (NodeId u = 1; u <= 4; ++u) EXPECT_EQ(labels[u], labels[0]);
  for (NodeId u = 6; u <= 9; ++u) EXPECT_EQ(labels[u], labels[5]);
  EXPECT_NE(labels[0], labels[5]);
  EXPECT_EQ(distinct_labels(labels), 2u);
}

TEST(LabelPropagation, LabelsDenselyNumbered) {
  stats::Rng rng(2);
  const auto labels = label_propagation(two_cliques(), rng);
  for (std::size_t l : labels) EXPECT_LT(l, distinct_labels(labels));
}

TEST(LabelPropagation, IsolatedNodesKeepOwnLabels) {
  stats::Rng rng(3);
  const auto labels = label_propagation(DigraphBuilder(4).build(), rng);
  EXPECT_EQ(distinct_labels(labels), 4u);
}

TEST(Modularity, GoodPartitionBeatsTrivialPartition) {
  const Digraph g = two_cliques();
  std::vector<std::size_t> good(10, 0);
  for (NodeId u = 5; u <= 9; ++u) good[u] = 1;
  const std::vector<std::size_t> trivial(10, 0);
  EXPECT_GT(modularity(g, good), 0.3);
  EXPECT_NEAR(modularity(g, trivial), 0.0, 1e-12);
}

TEST(Modularity, RandomPartitionNearZero) {
  const Digraph g = two_cliques();
  std::vector<std::size_t> alternating(10);
  for (std::size_t u = 0; u < 10; ++u) alternating[u] = u % 2;
  EXPECT_LT(modularity(g, alternating), 0.1);
}

TEST(Modularity, SizeMismatchThrows) {
  EXPECT_THROW(modularity(two_cliques(), {0, 1}), std::invalid_argument);
}

TEST(Modularity, EmptyGraphIsZero) {
  EXPECT_DOUBLE_EQ(modularity(DigraphBuilder(3).build(), {0, 1, 2}), 0.0);
}

TEST(LabelPropagationOnPlantedPartition, RecoversStrongCommunities) {
  stats::Rng rng(7);
  PlantedPartitionParams params;
  params.node_count = 200;
  params.communities = 2;
  params.p_in = 0.2;
  params.p_out = 0.002;
  const Digraph g = planted_partition(params, rng);
  const auto detected = label_propagation(g, rng);
  const auto truth = planted_communities(params);
  EXPECT_GT(rand_index(detected, truth), 0.9);
}

TEST(RandIndex, IdenticalPartitionsScoreOne) {
  const std::vector<std::size_t> p = {0, 0, 1, 1, 2};
  EXPECT_DOUBLE_EQ(rand_index(p, p), 1.0);
}

TEST(RandIndex, RelabeledPartitionStillScoresOne) {
  EXPECT_DOUBLE_EQ(rand_index({0, 0, 1, 1}, {5, 5, 9, 9}), 1.0);
}

TEST(RandIndex, DisagreementLowersScore) {
  const double r = rand_index({0, 0, 1, 1}, {0, 1, 0, 1});
  EXPECT_LT(r, 0.5);
}

TEST(RandIndex, SizeMismatchThrows) {
  EXPECT_THROW(rand_index({0, 1}, {0}), std::invalid_argument);
}

}  // namespace
}  // namespace digg::graph
