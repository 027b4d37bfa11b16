#include "src/graph/digraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "tests/test_support.h"

namespace digg::graph {
namespace {

// A lists B as friend => edge A->B => A in fans(B), B in friends(A).
TEST(Digraph, FanFriendSemantics) {
  DigraphBuilder b;
  b.add_follow(0, 1);  // user 0 watches user 1
  const Digraph g = b.build();
  ASSERT_EQ(g.node_count(), 2u);
  ASSERT_EQ(g.friend_count(0), 1u);
  EXPECT_EQ(g.friends(0)[0], 1u);
  ASSERT_EQ(g.fan_count(1), 1u);
  EXPECT_EQ(g.fans(1)[0], 0u);
  EXPECT_EQ(g.friend_count(1), 0u);
  EXPECT_EQ(g.fan_count(0), 0u);
}

TEST(Digraph, AddFanIsInverseOfAddFollow) {
  DigraphBuilder b;
  b.add_fan(/*target=*/3, /*fan=*/7);
  const Digraph g = b.build();
  EXPECT_TRUE(test::has_edge(g, 7, 3));
  EXPECT_FALSE(test::has_edge(g, 3, 7));
}

TEST(Digraph, EmptyGraph) {
  const Digraph g = DigraphBuilder(0).build();
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Digraph, IsolatedNodesPreserved) {
  const Digraph g = DigraphBuilder(5).build();
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_TRUE(g.friends(4).empty());
  EXPECT_TRUE(g.fans(4).empty());
}

TEST(Digraph, DuplicateEdgesDeduplicated) {
  DigraphBuilder b;
  b.add_follow(0, 1);
  b.add_follow(0, 1);
  b.add_follow(0, 1);
  const Digraph g = b.build();
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Digraph, SelfLoopThrowsImmediately) {
  DigraphBuilder b;
  EXPECT_THROW(b.add_follow(2, 2), std::invalid_argument);
}

TEST(Digraph, NeighborRowsSorted) {
  DigraphBuilder b;
  b.add_follow(0, 5);
  b.add_follow(0, 2);
  b.add_follow(0, 9);
  b.add_follow(7, 2);
  b.add_follow(3, 2);
  const Digraph g = b.build();
  EXPECT_TRUE(std::is_sorted(g.friends(0).begin(), g.friends(0).end()));
  EXPECT_TRUE(std::is_sorted(g.fans(2).begin(), g.fans(2).end()));
}

TEST(Digraph, HasEdgeOnlyForExistingEdges) {
  DigraphBuilder b;
  b.add_follow(1, 2);
  b.add_follow(2, 3);
  const Digraph g = b.build();
  EXPECT_TRUE(test::has_edge(g, 1, 2));
  EXPECT_FALSE(test::has_edge(g, 2, 1));
  EXPECT_FALSE(test::has_edge(g, 1, 3));
}

TEST(Digraph, DegreesMatchRows) {
  DigraphBuilder b;
  b.add_follow(0, 1);
  b.add_follow(0, 2);
  b.add_follow(3, 0);
  const Digraph g = b.build();
  EXPECT_EQ(g.friend_count(0), 2u);
  EXPECT_EQ(g.friend_count(3), 1u);
  const auto in = g.in_degrees();
  EXPECT_EQ(in[0], 1u);
  EXPECT_EQ(in[1], 1u);
  EXPECT_EQ(in[2], 1u);
  for (NodeId u = 0; u < g.node_count(); ++u)
    EXPECT_EQ(in[u], g.fan_count(u));
}

TEST(Digraph, OutOfRangeNodeThrows) {
  const Digraph g = DigraphBuilder(2).build();
  EXPECT_THROW(g.friends(2), std::out_of_range);
  EXPECT_THROW(g.fans(99), std::out_of_range);
}

TEST(Digraph, EnsureNodesGrowsNodeSet) {
  DigraphBuilder b;
  b.ensure_nodes(10);
  EXPECT_EQ(b.node_count(), 10u);
  b.ensure_nodes(5);  // never shrinks
  EXPECT_EQ(b.node_count(), 10u);
  EXPECT_EQ(b.build().node_count(), 10u);
}

TEST(Digraph, ImplicitNodeCreationFromEdges) {
  DigraphBuilder b;
  b.add_follow(4, 9);
  EXPECT_EQ(b.node_count(), 10u);
}

// Regression for HybridSet (src/digg/hybrid_set.h), whose span unions
// require strictly increasing adjacency rows: edges inserted in
// arbitrary (here descending, duplicated) order must come out of build() as
// sorted, deduplicated rows in BOTH CSR directions.
TEST(Digraph, UnsortedEdgeListsNormalizeAtBuild) {
  DigraphBuilder b;
  const std::pair<NodeId, NodeId> edges[] = {{0, 9}, {0, 3}, {0, 7}, {0, 3},
                                             {8, 4}, {2, 4}, {6, 4}, {2, 4},
                                             {9, 0}, {5, 0}, {1, 0}};
  for (auto [u, v] : edges) b.add_follow(u, v);
  const Digraph g = b.build();
  EXPECT_EQ(g.edge_count(), 9u);  // two duplicates dropped
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto out = g.friends(u);
    const auto in = g.fans(u);
    for (std::size_t i = 1; i < out.size(); ++i)
      EXPECT_LT(out[i - 1], out[i]) << "out row " << u;
    for (std::size_t i = 1; i < in.size(); ++i)
      EXPECT_LT(in[i - 1], in[i]) << "in row " << u;
  }
  const NodeId out0[] = {3, 7, 9};
  const NodeId in4[] = {2, 6, 8};
  ASSERT_EQ(g.friends(0).size(), 3u);
  ASSERT_EQ(g.fans(4).size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(g.friends(0)[i], out0[i]);
    EXPECT_EQ(g.fans(4)[i], in4[i]);
  }
}

// Release-mode guard for HybridSet::union_span (src/digg/hybrid_set.h):
// union_span's own strictly-increasing precondition is a debug assert, and
// its galloping set difference and bitmap word-run merge would silently drop
// or misplace ids on unsorted input. The enforcing copy of the invariant
// therefore lives at Digraph CSR construction — both materialisation paths
// (from_views, and build()'s post-normalization check) must
// reject a non-increasing adjacency row with a throw, in release builds too,
// so no such row can ever reach a union_span call site.
TEST(Digraph, UnsortedFanRowRejectedAtCsrBuild) {
  // 3 nodes; out-rows fine, but node 1's fan row {2, 0} is out of order.
  const std::vector<std::size_t> out_offsets = {0, 1, 2, 3};
  const std::vector<NodeId> out_targets = {1, 2, 1};
  const std::vector<std::size_t> in_offsets = {0, 0, 2, 3};
  const std::vector<NodeId> in_sources_bad = {2, 0, 1};   // fans(1) unsorted
  const std::vector<NodeId> in_sources_dup = {0, 0, 1};   // fans(1) not strict
  const std::vector<NodeId> in_sources_good = {0, 2, 1};  // fans(1) = {0, 2}

  EXPECT_THROW(Digraph::from_views(out_offsets, out_targets, in_offsets,
                                   in_sources_bad),
               std::invalid_argument);
  EXPECT_THROW(Digraph::from_views(out_offsets, out_targets, in_offsets,
                                   in_sources_dup),
               std::invalid_argument);

  // The same columns with the row fixed are accepted, and the fans span they
  // yield satisfies union_span's contract directly.
  const Digraph g = Digraph::from_views(out_offsets, out_targets, in_offsets,
                                        in_sources_good);
  const auto fans = g.fans(1);
  ASSERT_EQ(fans.size(), 2u);
  EXPECT_LT(fans[0], fans[1]);
}

// Sorted, in-range rows can still disagree between the two directions;
// fans() and friends() would then answer different relations.
TEST(Digraph, InCsrMustBeTheTransposeOfOutCsr) {
  // Edges 0->1, 1->2, 2->1: fans(1) = {0, 2}, fans(2) = {1}.
  const std::vector<std::size_t> out_offsets = {0, 1, 2, 3};
  const std::vector<NodeId> out_targets = {1, 2, 1};
  const std::vector<std::size_t> in_offsets = {0, 0, 2, 3};
  const std::vector<NodeId> wrong_source = {0, 1, 2};  // fans(1) = {0, 1}
  const std::vector<std::size_t> wrong_degrees = {0, 1, 1, 3};
  // fans(0) = {0}, fans(1) = {}, fans(2) = {1, 2}: row sizes disagree.
  const std::vector<NodeId> moved = {0, 1, 2};
  EXPECT_THROW(Digraph::from_views(out_offsets, out_targets, in_offsets,
                                   wrong_source),
               std::invalid_argument);
  EXPECT_THROW(Digraph::from_views(out_offsets, out_targets, wrong_degrees,
                                   moved),
               std::invalid_argument);
}

TEST(Digraph, BuildOutputAlwaysSatisfiesUnionSpanContract) {
  // build() normalizes arbitrary insertion order and then re-verifies both
  // CSR directions unconditionally (NDEBUG included); a surviving graph's
  // rows are safe union_span input by construction. Cross-check a messy
  // pseudo-random edge soup end to end.
  DigraphBuilder b(64);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 400; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const NodeId u = static_cast<NodeId>(x % 64);
    const NodeId v = static_cast<NodeId>((x >> 32) % 64);
    if (u != v) b.add_follow(u, v);
  }
  const Digraph g = b.build();
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto in = g.fans(u);
    for (std::size_t i = 1; i < in.size(); ++i)
      ASSERT_LT(in[i - 1], in[i]) << "fans row " << u;
    const auto out = g.friends(u);
    for (std::size_t i = 1; i < out.size(); ++i)
      ASSERT_LT(out[i - 1], out[i]) << "friends row " << u;
  }
}

TEST(Digraph, LargerGraphCrossCheck) {
  // Verify CSR symmetry: u in fans(v) iff v in friends(u), over all pairs.
  DigraphBuilder b;
  const std::pair<NodeId, NodeId> edges[] = {{0, 1}, {1, 2}, {2, 0}, {3, 1},
                                             {4, 1}, {1, 4}, {2, 4}};
  for (auto [u, v] : edges) b.add_follow(u, v);
  const Digraph g = b.build();
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v : g.friends(u)) {
      const auto fans = g.fans(v);
      EXPECT_TRUE(std::binary_search(fans.begin(), fans.end(), u));
    }
    for (NodeId w : g.fans(u)) {
      EXPECT_TRUE(test::has_edge(g, w, u));
    }
  }
}

}  // namespace
}  // namespace digg::graph
