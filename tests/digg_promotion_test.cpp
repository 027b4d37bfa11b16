#include "src/digg/promotion.h"

#include <gtest/gtest.h>

#include "src/digg/platform.h"
#include "src/digg/story.h"
#include "tests/test_support.h"

namespace digg::platform {
namespace {

using test::add_vote;

// A hand-built story; the count and rate policies read only its columns.
StoryState state_with_votes(std::size_t votes, Minutes spacing = 1.0) {
  StoryState state;
  state.story = make_story(0, 0, 0.0, 0.5);
  for (UserId u = 1; u < votes; ++u)
    add_vote(state.story, u, static_cast<Minutes>(u) * spacing);
  return state;
}

graph::Digraph empty_network(std::size_t n = 64) {
  return graph::DigraphBuilder(n).build();
}

// Diversity mass is kept by Site::vote, so these tests vote through a Site:
// submitter 0 at t=0, then `voters` one minute apart.
StoryState vote_through_site(const Site& site,
                             const std::vector<UserId>& voters) {
  StoryState state = site.submit(0, 0, 0.5, 0.0);
  Minutes t = 0.0;
  for (const UserId u : voters) site.vote(state, u, t += 1.0);
  return state;
}

std::unique_ptr<Site> diversity_site(graph::Digraph net, double threshold,
                                     double fan_vote_weight,
                                     Minutes window = kMinutesPerDay) {
  const std::size_t users = net.node_count();
  return std::make_unique<Site>(
      std::move(net), std::vector<UserProfile>(users),
      std::make_unique<DiversityPolicy>(threshold, fan_vote_weight, window));
}

std::vector<UserId> range_voters(UserId first, UserId last) {
  std::vector<UserId> out;
  for (UserId u = first; u <= last; ++u) out.push_back(u);
  return out;
}

TEST(VoteCountPolicy, PromotesAtThreshold) {
  const VoteCountPolicy policy(43);
  EXPECT_FALSE(policy.should_promote(state_with_votes(42), 50.0));
  EXPECT_TRUE(policy.should_promote(state_with_votes(43), 50.0));
}

TEST(VoteCountPolicy, WindowExpires) {
  const VoteCountPolicy policy(10, /*window=*/100.0);
  const StoryState s = state_with_votes(20);
  EXPECT_TRUE(policy.should_promote(s, 99.0));
  EXPECT_FALSE(policy.should_promote(s, 101.0));
}

TEST(VoteCountPolicy, ExposesThreshold) {
  EXPECT_EQ(VoteCountPolicy(43).threshold(), 43u);
  EXPECT_EQ(VoteCountPolicy().name(), "vote-count");
}

TEST(VoteRatePolicy, RequiresBothCountAndRate) {
  // 50 votes spaced 60 min apart: last 10 span 540 min.
  const VoteRatePolicy policy(43, 10, /*rate_window=*/240.0);
  const StoryState slow = state_with_votes(50, 60.0);
  EXPECT_FALSE(policy.should_promote(slow, slow.story.times.back()));
  const StoryState fast = state_with_votes(50, 1.0);
  EXPECT_TRUE(policy.should_promote(fast, fast.story.times.back()));
}

TEST(VoteRatePolicy, BelowThresholdNeverPromotes) {
  const VoteRatePolicy policy(43, 10, 240.0);
  EXPECT_FALSE(policy.should_promote(state_with_votes(42, 0.1), 10.0));
}

TEST(VoteRatePolicy, RateMeasuredOverLastVotes) {
  // Slow start, fast finish: last 10 votes packed into 5 minutes.
  StoryState s;
  s.story = make_story(0, 0, 0.0, 0.5);
  Minutes t = 0.0;
  for (UserId u = 1; u < 40; ++u) add_vote(s.story, u, t += 30.0);
  for (UserId u = 40; u < 50; ++u) add_vote(s.story, u, t += 0.5);
  const VoteRatePolicy policy(43, 10, 240.0, /*window=*/1e9);
  EXPECT_TRUE(policy.should_promote(s, t));
}

TEST(DiversityPolicy, IndependentVotesCountFully) {
  // No fan links: every vote independent, mass == vote count.
  const auto site = diversity_site(empty_network(), 5.0, 0.4);
  const StoryState s = vote_through_site(*site, range_voters(1, 6));
  EXPECT_DOUBLE_EQ(s.vote_mass, 7.0);
  EXPECT_TRUE(s.story.promoted());
  EXPECT_TRUE(site->policy().should_promote(s, 7.0));
}

TEST(DiversityPolicy, FanVotesDiscounted) {
  // Voters 1..4 are all fans of the submitter (0).
  graph::DigraphBuilder b(8);
  for (UserId fan = 1; fan <= 4; ++fan) b.add_fan(0, fan);
  const auto site = diversity_site(b.build(), 100.0, 0.4);
  const StoryState s = vote_through_site(*site, range_voters(1, 4));
  // submitter 1.0 + 4 fan votes * 0.4
  EXPECT_DOUBLE_EQ(s.vote_mass, 1.0 + 4 * 0.4);
}

TEST(DiversityPolicy, FanOfPriorVoterAlsoDiscounted) {
  // 2 is a fan of 1 (not of the submitter); 1 votes first.
  graph::DigraphBuilder b(8);
  b.add_fan(1, 2);
  const auto site = diversity_site(b.build(), 100.0, 0.5);
  const StoryState s = vote_through_site(*site, {1, 2});
  EXPECT_DOUBLE_EQ(s.vote_mass, 1.0 + 1.0 + 0.5);
}

TEST(DiversityPolicy, PromotesWhenWeightedMassReached) {
  const auto site = diversity_site(empty_network(), 3.0, 0.4);
  StoryState s = vote_through_site(*site, {1});
  EXPECT_FALSE(s.story.promoted());
  EXPECT_TRUE(site->vote(s, 2, 5.0));  // third full vote
  EXPECT_DOUBLE_EQ(*s.story.promoted_at, 5.0);
}

TEST(DiversityPolicy, RespectsWindow) {
  const auto site = diversity_site(empty_network(), 2.0, 0.4,
                                   /*window=*/10.0);
  StoryState s = site->submit(0, 0, 0.5, 0.0);
  EXPECT_FALSE(site->vote(s, 1, 100.0));  // mass 2.0, but past the window
  EXPECT_DOUBLE_EQ(s.vote_mass, 2.0);
  EXPECT_FALSE(s.story.promoted());
}

TEST(Factories, ProduceExpectedPolicies) {
  EXPECT_EQ(make_june2006_policy()->name(), "vote-count");
  EXPECT_EQ(make_september2006_policy()->name(), "diversity");
}

// The September-2006 change's purpose: a fan-driven story needs more raw
// votes than an independent one to reach the same weighted mass.
TEST(DiversityPolicy, FanDrivenStoryNeedsMoreVotes) {
  graph::DigraphBuilder b(64);
  for (UserId fan = 1; fan < 64; ++fan) b.add_fan(0, fan);
  const auto fan_site = diversity_site(b.build(), 10.0, 0.25);
  const auto independent_site = diversity_site(empty_network(), 10.0, 0.25);

  const double fan_mass =
      vote_through_site(*fan_site, range_voters(1, 20)).vote_mass;
  const double independent_mass =
      vote_through_site(*independent_site, range_voters(1, 20)).vote_mass;
  EXPECT_LT(fan_mass, independent_mass);
  EXPECT_DOUBLE_EQ(fan_mass, 1.0 + 20 * 0.25);
}

}  // namespace
}  // namespace digg::platform
