#include "src/core/influence.h"

#include <gtest/gtest.h>

#include "src/digg/story.h"
#include "tests/test_support.h"

namespace digg::core {
namespace {

using test::add_vote;
using platform::make_story;
using platform::Story;

// fans(0) = {1,2,3}; fans(1) = {4,5}; fans(4) = {0}.
graph::Digraph network() {
  graph::DigraphBuilder b(8);
  b.add_fan(0, 1);
  b.add_fan(0, 2);
  b.add_fan(0, 3);
  b.add_fan(1, 4);
  b.add_fan(1, 5);
  b.add_fan(4, 0);
  return b.build();
}

// The library's influence after the first `votes` votes.
std::size_t influence_at(const Story& s, const graph::Digraph& net,
                         std::size_t votes) {
  return influence_profile(s, net, {votes})[0];
}

TEST(InfluenceAfter, AtSubmissionEqualsSubmitterFans) {
  const Story s = make_story(0, 0, 0.0, 0.5);
  EXPECT_EQ(influence_at(s, network(), 1), 3u);
}

TEST(InfluenceAfter, GrowsWithVotersButExcludesThem) {
  Story s = make_story(0, 0, 0.0, 0.5);
  add_vote(s, 1, 1.0);
  // After 1 votes: watchers = {2,3} (1 left) + fans(1) = {4,5} -> 4.
  EXPECT_EQ(influence_at(s, network(), 2), 4u);
}

TEST(InfluenceAfter, VotersWhoAlreadyVotedNotCounted) {
  Story s = make_story(0, 4, 0.0, 0.5);  // submitter 4, fans(4) = {0}
  add_vote(s, 0, 1.0);                   // 0 votes; fans(0) = {1,2,3}
  // Watchers: fans(4)\{voters} = {} plus fans(0) = {1,2,3}.
  EXPECT_EQ(influence_at(s, network(), 2), 3u);
}

// fans(0) = {1, 2}; fans(1) = {3}; fans(2) = {3}; 3 has no fans.
graph::Digraph diamond() {
  graph::DigraphBuilder b(5);
  b.add_fan(0, 1);
  b.add_fan(0, 2);
  b.add_fan(1, 3);
  b.add_fan(2, 3);
  return b.build();
}

TEST(InfluenceAfter, MatchesManualUnion) {
  const graph::Digraph net = diamond();
  Story s = make_story(0, 0, 0.0, 0.5);
  add_vote(s, 1, 1.0);
  // After submitter: fans {1,2}. After voter 1: 1 leaves, 3 joins => {2,3}.
  EXPECT_EQ(influence_at(s, net, 1), 2u);
  EXPECT_EQ(influence_at(s, net, 2), 2u);
  EXPECT_EQ(test::influence_after(s, net, 1), 2u);
  EXPECT_EQ(test::influence_after(s, net, 2), 2u);
}

TEST(InfluenceAfter, CountBeyondVotesSaturates) {
  const graph::Digraph net = diamond();
  const Story s = make_story(0, 0, 0.0, 0.5);
  EXPECT_EQ(influence_at(s, net, 100), influence_at(s, net, 1));
}

TEST(InfluenceProfile, ChecksMultipleCheckpointsIncrementally) {
  Story s = make_story(0, 0, 0.0, 0.5);
  add_vote(s, 1, 1.0);
  add_vote(s, 6, 2.0);  // no fans
  const auto profile = influence_profile(s, network(), {1, 2, 3, 50});
  ASSERT_EQ(profile.size(), 4u);
  EXPECT_EQ(profile[0], test::influence_after(s, network(), 1));
  EXPECT_EQ(profile[1], test::influence_after(s, network(), 2));
  EXPECT_EQ(profile[2], test::influence_after(s, network(), 3));
  EXPECT_EQ(profile[3], profile[2]);  // saturates past the vote record
}

TEST(InfluenceProfile, RejectsUnsortedCheckpoints) {
  const Story s = make_story(0, 0, 0.0, 0.5);
  EXPECT_THROW(influence_profile(s, network(), {5, 1}), std::invalid_argument);
}

TEST(InfluenceProfile, ZeroCheckpointGivesZero) {
  const Story s = make_story(0, 0, 0.0, 0.5);
  const auto profile = influence_profile(s, network(), {0, 1});
  EXPECT_EQ(profile[0], 0u);
  EXPECT_EQ(profile[1], 3u);
}

TEST(Influence, DisconnectedSubmitterHasZeroInfluence) {
  const Story s = make_story(0, 7, 0.0, 0.5);
  EXPECT_EQ(influence_at(s, network(), 1), 0u);
}

}  // namespace
}  // namespace digg::core
