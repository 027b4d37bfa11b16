#include "src/dynamics/vote_model.h"

#include <gtest/gtest.h>

#include "src/graph/generators.h"

namespace digg::dynamics {
namespace {

using platform::Site;
using platform::StoryPhase;
using platform::StoryState;
using platform::UserProfile;
using platform::VoteCountPolicy;

struct Fixture {
  graph::Digraph network;
  Site site;

  explicit Fixture(std::uint64_t seed = 1, std::size_t users = 2000,
                   std::size_t threshold = 43)
      : network(make_network(seed, users)),
        site(network, std::vector<UserProfile>(users),
             std::make_unique<VoteCountPolicy>(threshold)) {}

  /// Opens story 0 by `submitter` at time 0.
  [[nodiscard]] StoryState submit(platform::UserId submitter,
                                  double quality) const {
    return site.submit(0, submitter, quality, 0.0);
  }

  static graph::Digraph make_network(std::uint64_t seed, std::size_t users) {
    stats::Rng rng(seed);
    graph::PreferentialAttachmentParams params;
    params.node_count = users;
    params.mean_out_degree = 4.0;
    return graph::preferential_attachment(params, rng);
  }
};

VoteModelParams fast_params() {
  VoteModelParams p;
  p.step = 2.0;
  p.horizon = platform::kMinutesPerDay;  // short runs for tests
  return p;
}

TEST(VoteSimulator, HotStoryGathersManyVotes) {
  Fixture fx;
  // Seed picked for a clearly-hot run under the split(story_id) substreams.
  VoteSimulator sim(fx.site, fast_params(), stats::Rng(10));
  StoryState st = fx.submit(0, 0.9);
  const StoryRun run = sim.run_story(st, {0.9, 0.7});
  EXPECT_GT(st.story.vote_count(), 50u);
  EXPECT_GT(run.discovery_votes, 10u);
  EXPECT_TRUE(st.story.promoted());
}

TEST(VoteSimulator, DullUnconnectedStoryStaysSmall) {
  Fixture fx;
  VoteSimulator sim(fx.site, fast_params(), stats::Rng(7));
  // Late-arriving user: few fans.
  StoryState st = fx.submit(1999, 0.03);
  sim.run_story(st, {0.03, 0.1});
  EXPECT_LT(st.story.vote_count(), 43u);
  EXPECT_FALSE(st.story.promoted());
}

TEST(VoteSimulator, TimeSeriesMatchesFinalCount) {
  Fixture fx;
  VoteSimulator sim(fx.site, fast_params(), stats::Rng(5));
  StoryState st = fx.submit(0, 0.5);
  sim.run_story(st, {0.5, 0.5});
  // The story's own times column is its vote series: one entry per vote,
  // opening with the submitter's digg and closing within the horizon.
  const platform::Story& s = st.story;
  ASSERT_GE(s.vote_count(), 1u);
  EXPECT_EQ(s.times.size(), s.vote_count());
  EXPECT_EQ(s.times.front(), s.submitted_at);
  EXPECT_LE(s.times.back() - s.submitted_at, fast_params().horizon);
}

TEST(VoteSimulator, DeterministicGivenSeeds) {
  auto run_once = [] {
    Fixture fx(42);
    VoteSimulator sim(fx.site, fast_params(), stats::Rng(9));
    StoryState st = fx.submit(0, 0.6);
    sim.run_story(st, {0.6, 0.5});
    const platform::Story& s = st.story;
    return std::pair(s.voters, s.times);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(VoteSimulator, UnpromotedStoryStopsAtExpiry) {
  Fixture fx(1, 2000, /*threshold=*/100000);  // promotion unreachable
  VoteModelParams params = fast_params();
  params.horizon = 3.0 * platform::kMinutesPerDay;
  VoteSimulator sim(fx.site, params, stats::Rng(13));
  StoryState st = fx.submit(0, 0.9);
  sim.run_story(st, {0.9, 0.9});
  const platform::Story& s = st.story;
  EXPECT_EQ(s.phase, StoryPhase::kExpired);
  // No vote should land after the upcoming lifetime.
  const platform::Minutes lifetime = fx.site.queue_params().upcoming_lifetime;
  for (platform::Minutes t : s.times)
    EXPECT_LE(t, s.submitted_at + lifetime + params.step + 1e-9);
}

TEST(VoteSimulator, FanChannelDominatesForConnectedDullStory) {
  Fixture fx;
  VoteSimulator sim(fx.site, fast_params(), stats::Rng(17));
  // Top user (0) with a dull-but-community-pleasing story.
  StoryState st = fx.submit(0, 0.05);
  const StoryRun run = sim.run_story(st, {0.05, 0.9});
  EXPECT_GT(run.fan_channel_votes, run.discovery_votes);
}

TEST(VoteSimulator, DiscoveryDominatesForUnconnectedHotStory) {
  Fixture fx;
  VoteSimulator sim(fx.site, fast_params(), stats::Rng(19));
  StoryState st = fx.submit(1999, 0.9);
  const StoryRun run = sim.run_story(st, {0.9, 0.2});
  EXPECT_GT(run.discovery_votes, run.fan_channel_votes);
}

TEST(SimulateBatch, RunsAllSubmissions) {
  Fixture fx;
  VoteSimulator sim(fx.site, fast_params(), stats::Rng(23));
  const std::vector<Submission> submissions = {
      {0, {0.5, 0.5}}, {10, {0.2, 0.3}}, {1500, {0.8, 0.4}}};
  const std::vector<SimulatedStory> result =
      simulate_batch(fx.site, sim, submissions, 2.0);
  ASSERT_EQ(result.size(), 3u);
  for (std::size_t k = 0; k < result.size(); ++k) {
    EXPECT_EQ(result[k].story.id, k);
    EXPECT_EQ(result[k].run.story, k);
    EXPECT_EQ(result[k].story.submitter, submissions[k].first);
  }
  // Spacing: second story submitted 2 minutes after the first.
  EXPECT_DOUBLE_EQ(result[1].story.submitted_at, 2.0);
}

}  // namespace
}  // namespace digg::dynamics
