#include "src/core/cascade.h"

#include <gtest/gtest.h>

#include "src/core/prefix_visibility.h"
#include "src/digg/story.h"
#include "tests/test_support.h"

namespace digg::core {
namespace {

using test::add_vote;
using platform::make_story;
using platform::Story;

// fans(0) = {1, 2}; fans(1) = {3}; 4, 5 unconnected.
graph::Digraph network() {
  graph::DigraphBuilder b(6);
  b.add_fan(0, 1);
  b.add_fan(0, 2);
  b.add_fan(1, 3);
  return b.build();
}

// Per-vote provenance through core::in_network: entry k-1 says whether
// vote k (the first vote after the submitter's digg is vote 1) was
// in-network.
std::vector<bool> vote_provenance(const platform::StoryView& s,
                                  const graph::Digraph& g) {
  std::vector<bool> out;
  const auto voters = s.voters();
  for (std::size_t k = 1; k < voters.size(); ++k)
    out.push_back(core::in_network(voters.first(k), voters[k], g));
  return out;
}

TEST(VoteProvenance, ClassifiesEachVote) {
  Story s = make_story(0, 0, 0.0, 0.5);
  add_vote(s, 1, 1.0);  // fan of submitter -> in-network
  add_vote(s, 4, 2.0);  // unconnected -> out
  add_vote(s, 3, 3.0);  // fan of voter 1 -> in-network
  add_vote(s, 5, 4.0);  // unconnected -> out
  const auto prov = vote_provenance(s, network());
  ASSERT_EQ(prov.size(), 4u);
  EXPECT_TRUE(prov[0]);
  EXPECT_FALSE(prov[1]);
  EXPECT_TRUE(prov[2]);
  EXPECT_FALSE(prov[3]);
}

TEST(VoteProvenance, ExposureOrderMatters) {
  // Voter 3 (fan of 1) votes BEFORE 1: at that moment 3 is not exposed.
  Story s = make_story(0, 0, 0.0, 0.5);
  add_vote(s, 3, 1.0);
  add_vote(s, 1, 2.0);
  const auto prov = vote_provenance(s, network());
  EXPECT_FALSE(prov[0]);
  EXPECT_TRUE(prov[1]);  // 1 is a fan of the submitter
}

TEST(VoteProvenance, EmptyAndSubmitterOnlyStories) {
  EXPECT_TRUE(vote_provenance(Story{}, network()).empty());
  const Story s = make_story(0, 0, 0.0, 0.5);
  EXPECT_TRUE(vote_provenance(s, network()).empty());
}

TEST(VoteProvenance, SubmitterOutsideNetworkTolerated) {
  Story s = make_story(0, 1000, 0.0, 0.5);
  add_vote(s, 1, 1.0);
  const auto prov = vote_provenance(s, network());
  ASSERT_EQ(prov.size(), 1u);
  EXPECT_FALSE(prov[0]);  // submitter has no (known) fans
}

TEST(InNetworkVotes, CountsWithinFirstN) {
  Story s = make_story(0, 0, 0.0, 0.5);
  add_vote(s, 1, 1.0);  // in
  add_vote(s, 4, 2.0);  // out
  add_vote(s, 2, 3.0);  // in (fan of submitter)
  add_vote(s, 3, 4.0);  // in (fan of 1)
  EXPECT_EQ(in_network_votes(s, network(), 1), 1u);
  EXPECT_EQ(in_network_votes(s, network(), 2), 1u);
  EXPECT_EQ(in_network_votes(s, network(), 3), 2u);
  EXPECT_EQ(in_network_votes(s, network(), 10), 3u);
  EXPECT_EQ(in_network_votes(s, network(), 0), 0u);
}

TEST(CascadeProfile, MatchesIndividualCounts) {
  Story s = make_story(0, 0, 0.0, 0.5);
  add_vote(s, 1, 1.0);
  add_vote(s, 4, 2.0);
  add_vote(s, 2, 3.0);
  add_vote(s, 3, 4.0);
  add_vote(s, 5, 5.0);
  const auto profile = cascade_profile(s, network(), {1, 3, 5, 100});
  ASSERT_EQ(profile.size(), 4u);
  EXPECT_EQ(profile[0], in_network_votes(s, network(), 1));
  EXPECT_EQ(profile[1], in_network_votes(s, network(), 3));
  EXPECT_EQ(profile[2], in_network_votes(s, network(), 5));
  EXPECT_EQ(profile[3], in_network_votes(s, network(), 100));
}

TEST(CascadeProfile, RejectsUnsortedCheckpoints) {
  const Story s = make_story(0, 0, 0.0, 0.5);
  EXPECT_THROW(cascade_profile(s, network(), {10, 5}), std::invalid_argument);
}

TEST(CascadeProfile, MonotoneNonDecreasing) {
  Story s = make_story(0, 0, 0.0, 0.5);
  add_vote(s, 1, 1.0);
  add_vote(s, 2, 2.0);
  add_vote(s, 3, 3.0);
  const auto profile = cascade_profile(s, network(), {1, 2, 3});
  EXPECT_LE(profile[0], profile[1]);
  EXPECT_LE(profile[1], profile[2]);
}

}  // namespace
}  // namespace digg::core
