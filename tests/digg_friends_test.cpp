#include "src/digg/friends_interface.h"

#include <gtest/gtest.h>

#include "src/digg/story.h"
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
  EXPECT_EQ(vis.voter_count(), 2u);
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

TEST(VisibilitySet, SampleWatcherReturnsLiveWatcher) {
  const graph::Digraph net = small_network();
  VisibilitySet vis(net);
  vis.add_voter(0);
  stats::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const auto w = vis.sample_watcher(rng);
    ASSERT_TRUE(w.has_value());
    EXPECT_TRUE(vis.can_see(*w));
  }
}

TEST(VisibilitySet, SampleWatcherEmptyIsNullopt) {
  const graph::Digraph net = small_network();
  VisibilitySet vis(net);
  stats::Rng rng(1);
  EXPECT_FALSE(vis.sample_watcher(rng).has_value());
}

TEST(VisibilitySet, SampleWatcherSkipsStaleEntries) {
  const graph::Digraph net = small_network();
  VisibilitySet vis(net);
  vis.add_voter(0);   // watchers {1,2}
  vis.add_voter(1);   // 1 votes; watcher pool still holds 1 (stale)
  stats::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const auto w = vis.sample_watcher(rng);
    ASSERT_TRUE(w.has_value());
    EXPECT_NE(*w, 1u);
  }
}

TEST(VisibilitySet, ExposureLogUniqueEntries) {
  const graph::Digraph net = small_network();
  VisibilitySet vis(net);
  vis.add_voter(1);  // exposes 3
  vis.add_voter(2);  // would expose 3 again
  const auto& log = vis.exposure_log();
  EXPECT_EQ(std::count(log.begin(), log.end(), 3u), 1);
}

TEST(FriendsActivity, SubmissionsAndDiggsVisible) {
  // User 3 watches 1 and 2 (friends(3) = {1,2}).
  graph::DigraphBuilder b(5);
  b.add_follow(3, 1);
  b.add_follow(3, 2);
  const graph::Digraph net = b.build();

  std::vector<Story> stories;
  stories.push_back(make_story(0, 1, /*submitted_at=*/0.0, 0.5));  // friend 1
  stories.push_back(make_story(1, 4, 10.0, 0.5));  // stranger submits
  add_vote(stories[1], 2, 20.0);                   // friend 2 diggs it

  const FriendsActivity act = friends_activity(3, stories, net, /*now=*/30.0);
  ASSERT_EQ(act.submitted_by_friends.size(), 1u);
  EXPECT_EQ(act.submitted_by_friends[0], 0u);
  ASSERT_EQ(act.dugg_by_friends.size(), 1u);
  EXPECT_EQ(act.dugg_by_friends[0], 1u);
}

TEST(FriendsActivity, LookbackWindowApplies) {
  graph::DigraphBuilder b(4);
  b.add_follow(3, 1);
  const graph::Digraph net = b.build();
  std::vector<Story> stories;
  stories.push_back(make_story(0, 1, 0.0, 0.5));
  // 49 hours later, the submission is outside the 48h window.
  const FriendsActivity act =
      friends_activity(3, stories, net, /*now=*/49.0 * 60.0);
  EXPECT_TRUE(act.submitted_by_friends.empty());
}

TEST(FriendsActivity, FutureVotesInvisible) {
  graph::DigraphBuilder b(4);
  b.add_follow(3, 1);
  const graph::Digraph net = b.build();
  std::vector<Story> stories;
  stories.push_back(make_story(0, 2, 0.0, 0.5));
  add_vote(stories[0], 1, 100.0);  // friend diggs at t=100
  const FriendsActivity before = friends_activity(3, stories, net, 50.0);
  EXPECT_TRUE(before.dugg_by_friends.empty());
  const FriendsActivity after = friends_activity(3, stories, net, 150.0);
  EXPECT_EQ(after.dugg_by_friends.size(), 1u);
}

TEST(FriendsActivity, UnknownUserSeesNothing) {
  const graph::Digraph net = small_network();
  std::vector<Story> stories;
  stories.push_back(make_story(0, 0, 0.0, 0.5));
  const FriendsActivity act = friends_activity(1000, stories, net, 10.0);
  EXPECT_TRUE(act.submitted_by_friends.empty());
  EXPECT_TRUE(act.dugg_by_friends.empty());
}

}  // namespace
}  // namespace digg::platform
