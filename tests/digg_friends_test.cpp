#include "src/digg/friends_interface.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "src/stats/rng.h"

namespace digg::platform {
namespace {

// fans(0) = {1, 2}; fans(1) = {3}; fans(2) = {3}; 3 has no fans.
graph::Digraph small_network() {
  graph::DigraphBuilder b(5);
  b.add_fan(0, 1);
  b.add_fan(0, 2);
  b.add_fan(1, 3);
  b.add_fan(2, 3);
  return b.build();
}

TEST(VisibilitySet, SubmitterFansBecomeWatchers) {
  const graph::Digraph net = small_network();
  VisibilitySet vis(net);
  vis.add_voter(0);
  EXPECT_EQ(vis.influence(), 2u);
  EXPECT_TRUE(vis.can_see(1));
  EXPECT_TRUE(vis.can_see(2));
  EXPECT_FALSE(vis.can_see(3));
  EXPECT_TRUE(vis.has_voted(0));
}

TEST(VisibilitySet, VotersLeaveWatcherSet) {
  const graph::Digraph net = small_network();
  VisibilitySet vis(net);
  vis.add_voter(0);
  vis.add_voter(1);  // watcher votes: leaves set, brings fan 3
  EXPECT_FALSE(vis.can_see(1));
  EXPECT_TRUE(vis.can_see(3));
  EXPECT_EQ(vis.influence(), 2u);  // {2, 3}
  EXPECT_TRUE(vis.has_voted(1));
}

TEST(VisibilitySet, PriorVotersNeverReenter) {
  const graph::Digraph net = small_network();
  VisibilitySet vis(net);
  vis.add_voter(3);  // 3 votes first (out of network)
  vis.add_voter(1);  // 1's fans = {3}, but 3 already voted
  EXPECT_FALSE(vis.can_see(3));
  EXPECT_EQ(vis.influence(), 0u);
}

TEST(VisibilitySet, DuplicateVoterThrows) {
  const graph::Digraph net = small_network();
  VisibilitySet vis(net);
  vis.add_voter(0);
  EXPECT_THROW(vis.add_voter(0), std::invalid_argument);
}

TEST(VisibilitySet, VoterOutsideNetworkTolerated) {
  const graph::Digraph net = small_network();
  VisibilitySet vis(net);
  vis.add_voter(1000);  // unknown to the graph: no fans to add
  EXPECT_EQ(vis.influence(), 0u);
  EXPECT_TRUE(vis.has_voted(1000));
}

TEST(VisibilitySet, ExposureLogUniqueEntries) {
  const graph::Digraph net = small_network();
  VisibilitySet vis(net);
  vis.add_voter(1);  // exposes 3
  vis.add_voter(2);  // would expose 3 again
  const auto& log = vis.exposure_log();
  EXPECT_EQ(std::count(log.begin(), log.end(), 3u), 1);
}

// Reference model: the same fold over std::set, with the exposure log
// appended in fan-span order as each fan first becomes a watcher.
struct ReferenceVisibility {
  std::set<UserId> watchers;
  std::set<UserId> voters;
  std::vector<UserId> log;

  void add_voter(const graph::Digraph& net, UserId voter) {
    voters.insert(voter);
    watchers.erase(voter);
    if (voter >= net.node_count()) return;
    for (const UserId fan : net.fans(voter))
      if (voters.count(fan) == 0 && watchers.insert(fan).second)
        log.push_back(fan);
  }
};

// Every query of `vis` against the model, over the whole network plus the
// out-of-network ids `extra`.
void expect_matches(const VisibilitySet& vis, const ReferenceVisibility& ref,
                    const graph::Digraph& net,
                    const std::vector<UserId>& extra) {
  ASSERT_EQ(vis.exposure_log(), ref.log);
  ASSERT_EQ(vis.influence(), ref.watchers.size());
  auto probe = [&](UserId u) {
    ASSERT_EQ(vis.can_see(u), ref.watchers.count(u) == 1) << "user " << u;
    ASSERT_EQ(vis.has_voted(u), ref.voters.count(u) == 1) << "user " << u;
  };
  for (UserId u = 0; u < net.node_count(); ++u) probe(u);
  for (const UserId u : extra) probe(u);
}

class VisibilityReference : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, VisibilityReference,
                         ::testing::Values(1, 7, 42));

TEST_P(VisibilityReference, BitmapFoldMatchesSetFold) {
  stats::Rng rng(GetParam());
  constexpr UserId kUsers = 5000;
  constexpr UserId kHub = 17;
  graph::DigraphBuilder b(kUsers);
  // A hub with more than 4,000 fans, plus a sparse random fan graph.
  for (UserId u = 0; u < kUsers; ++u)
    if (u != kHub && rng.bernoulli(0.85)) b.add_fan(kHub, u);
  for (int e = 0; e < 20000; ++e) {
    const auto from = static_cast<UserId>(rng.uniform_int(0, kUsers - 1));
    const auto to = static_cast<UserId>(rng.uniform_int(0, kUsers - 1));
    if (from != to) b.add_fan(from, to);
  }
  const graph::Digraph net = b.build();
  ASSERT_GT(net.fans(kHub).size(), 4000u);

  // 150 distinct network voters in random order, the hub among them, and
  // voters past node_count — one beyond the last bitmap word.
  std::vector<UserId> order(kUsers);
  std::iota(order.begin(), order.end(), UserId{0});
  std::shuffle(order.begin(), order.end(), rng.engine());
  order.resize(150);
  if (std::find(order.begin(), order.end(), kHub) == order.end())
    order[static_cast<std::size_t>(rng.uniform_int(0, 149))] = kHub;
  const std::vector<UserId> outside = {kUsers, kUsers + 1, kUsers + 64,
                                       kUsers + 1000};
  for (const UserId u : outside)
    order.insert(order.begin() +
                     rng.uniform_int(0, static_cast<std::int64_t>(order.size())),
                 u);

  VisibilitySet vis(net);
  ReferenceVisibility ref;
  for (std::size_t i = 0; i < order.size(); ++i) {
    vis.add_voter(order[i]);
    ref.add_voter(net, order[i]);
    ASSERT_NO_FATAL_FAILURE(expect_matches(vis, ref, net, outside));
    // A repeat of any earlier voter throws and changes nothing.
    const UserId repeat =
        order[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i)))];
    EXPECT_THROW(vis.add_voter(repeat), std::invalid_argument);
    ASSERT_NO_FATAL_FAILURE(expect_matches(vis, ref, net, outside));
  }
}

}  // namespace
}  // namespace digg::platform
