#include "src/graph/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "tests/test_support.h"

namespace digg::graph {
namespace {

/// Share of nodes in the largest weakly connected component (edges taken
/// in both directions), by union-find over the friends rows.
double giant_component_fraction(const Digraph& g) {
  std::vector<NodeId> parent(g.node_count());
  std::iota(parent.begin(), parent.end(), NodeId{0});
  auto root = [&](NodeId u) {
    while (parent[u] != u) u = parent[u] = parent[parent[u]];
    return u;
  };
  for (NodeId u = 0; u < g.node_count(); ++u)
    for (const NodeId v : g.friends(u)) parent[root(u)] = root(v);
  std::vector<std::size_t> size(g.node_count(), 0);
  for (NodeId u = 0; u < g.node_count(); ++u) ++size[root(u)];
  return static_cast<double>(*std::max_element(size.begin(), size.end())) /
         static_cast<double>(g.node_count());
}

TEST(ErdosRenyi, EdgeCountConcentratesAroundExpectation) {
  stats::Rng rng(1);
  const std::size_t n = 400;
  const double p = 0.01;
  const Digraph g = erdos_renyi(n, p, rng);
  const double expected = p * static_cast<double>(n) * (n - 1);
  EXPECT_NEAR(static_cast<double>(g.edge_count()), expected,
              4.0 * std::sqrt(expected));
}

TEST(ErdosRenyi, ZeroProbabilityGivesNoEdges) {
  stats::Rng rng(1);
  EXPECT_EQ(erdos_renyi(100, 0.0, rng).edge_count(), 0u);
}

TEST(ErdosRenyi, NoSelfLoops) {
  stats::Rng rng(2);
  const Digraph g = erdos_renyi(50, 0.2, rng);
  for (NodeId u = 0; u < g.node_count(); ++u)
    EXPECT_FALSE(test::has_edge(g, u, u));
}

TEST(ErdosRenyi, RejectsBadProbability) {
  stats::Rng rng(1);
  EXPECT_THROW(erdos_renyi(10, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(erdos_renyi(10, 1.1, rng), std::invalid_argument);
}

TEST(PreferentialAttachment, EarlyNodesAccumulateFans) {
  stats::Rng rng(3);
  PreferentialAttachmentParams params;
  params.node_count = 3000;
  params.mean_out_degree = 4.0;
  const Digraph g = preferential_attachment(params, rng);
  // Mean fan count of the first 20 nodes dwarfs that of the last 1000.
  double head = 0.0;
  for (NodeId u = 0; u < 20; ++u) head += static_cast<double>(g.fan_count(u));
  head /= 20.0;
  double tail = 0.0;
  for (NodeId u = 2000; u < 3000; ++u)
    tail += static_cast<double>(g.fan_count(u));
  tail /= 1000.0;
  EXPECT_GT(head, 10.0 * std::max(tail, 0.5));
}

TEST(PreferentialAttachment, FanDistributionHeavyTailed) {
  stats::Rng rng(4);
  PreferentialAttachmentParams params;
  params.node_count = 3000;
  const Digraph g = preferential_attachment(params, rng);
  const auto in = g.in_degrees();
  const std::size_t max_fans = *std::max_element(in.begin(), in.end());
  const double mean_fans =
      static_cast<double>(g.edge_count()) / static_cast<double>(in.size());
  // A hub far above the mean is the signature of preferential attachment.
  EXPECT_GT(static_cast<double>(max_fans), 20.0 * mean_fans);
}

TEST(PreferentialAttachment, MeanOutDegreeApproximatelyRespected) {
  stats::Rng rng(5);
  PreferentialAttachmentParams params;
  params.node_count = 2000;
  params.mean_out_degree = 5.0;
  const Digraph g = preferential_attachment(params, rng);
  const double mean_out = static_cast<double>(g.edge_count()) /
                          static_cast<double>(g.node_count());
  // Duplicate-rejection and the n-1 first node lower it slightly.
  EXPECT_NEAR(mean_out, 5.0, 1.0);
}

TEST(PreferentialAttachment, MostlyOneWeakComponent) {
  stats::Rng rng(6);
  PreferentialAttachmentParams params;
  params.node_count = 1000;
  const Digraph g = preferential_attachment(params, rng);
  EXPECT_GT(giant_component_fraction(g), 0.99);
}

TEST(PreferentialAttachment, RejectsBadParameters) {
  stats::Rng rng(1);
  PreferentialAttachmentParams params;
  params.node_count = 1;
  EXPECT_THROW(preferential_attachment(params, rng), std::invalid_argument);
  params.node_count = 10;
  params.mean_out_degree = 0.0;
  EXPECT_THROW(preferential_attachment(params, rng), std::invalid_argument);
  params.mean_out_degree = 2.0;
  params.smoothing = 0.0;
  EXPECT_THROW(preferential_attachment(params, rng), std::invalid_argument);
}

TEST(PlantedPartition, DenserWithinCommunities) {
  stats::Rng rng(9);
  PlantedPartitionParams params;
  params.node_count = 400;
  params.communities = 4;
  params.p_in = 0.08;
  params.p_out = 0.004;
  const Digraph g = planted_partition(params, rng);
  const auto community = planted_communities(params);
  std::size_t internal = 0;
  for (NodeId u = 0; u < g.node_count(); ++u)
    for (NodeId v : g.friends(u))
      if (community[u] == community[v]) ++internal;
  const double internal_frac =
      static_cast<double>(internal) / static_cast<double>(g.edge_count());
  // ~100 in-community targets at p_in vs ~300 outside at p_out:
  // expected internal fraction ~ (100*0.08)/(100*0.08+300*0.004) ~ 0.87.
  EXPECT_GT(internal_frac, 0.75);
}

TEST(PlantedPartition, CommunitiesAreContiguousBlocks) {
  PlantedPartitionParams params;
  params.node_count = 10;
  params.communities = 2;
  const auto community = planted_communities(params);
  EXPECT_EQ(community[0], 0u);
  EXPECT_EQ(community[4], 0u);
  EXPECT_EQ(community[5], 1u);
  EXPECT_EQ(community[9], 1u);
}

TEST(PlantedPartition, RejectsBadCommunityCount) {
  stats::Rng rng(1);
  PlantedPartitionParams params;
  params.node_count = 10;
  params.communities = 0;
  EXPECT_THROW(planted_partition(params, rng), std::invalid_argument);
  params.communities = 11;
  EXPECT_THROW(planted_partition(params, rng), std::invalid_argument);
}

TEST(Generators, DeterministicGivenSeed) {
  stats::Rng rng1(77);
  stats::Rng rng2(77);
  PreferentialAttachmentParams params;
  params.node_count = 500;
  const Digraph a = preferential_attachment(params, rng1);
  const Digraph b = preferential_attachment(params, rng2);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId u = 0; u < a.node_count(); ++u) {
    const auto fa = a.friends(u);
    const auto fb = b.friends(u);
    ASSERT_EQ(fa.size(), fb.size());
    EXPECT_TRUE(std::equal(fa.begin(), fa.end(), fb.begin()));
  }
}

}  // namespace
}  // namespace digg::graph
