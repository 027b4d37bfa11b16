#include "src/dynamics/site_sim.h"

#include <gtest/gtest.h>

#include <set>

#include "src/graph/generators.h"

namespace digg::dynamics {
namespace {

using platform::Platform;
using platform::UserProfile;

graph::Digraph make_network(std::size_t users, std::uint64_t seed) {
  stats::Rng rng(seed);
  graph::PreferentialAttachmentParams params;
  params.node_count = users;
  params.mean_out_degree = 4.0;
  return graph::preferential_attachment(params, rng);
}

std::vector<UserProfile> make_population(std::size_t users) {
  stats::Rng rng(5);
  platform::PopulationParams params;
  params.user_count = users;
  return platform::generate_population(params, rng);
}

TraitsSampler mixed_traits() {
  return [](UserId submitter, stats::Rng& rng) {
    StoryTraits traits;
    traits.general = rng.uniform(0.05, 0.8);
    traits.community =
        std::min(1.0, 0.2 + 0.5 * traits.general +
                          (submitter < 100 ? 0.4 : 0.0));
    return traits;
  };
}

SiteParams fast_site() {
  SiteParams p;
  p.submissions_per_day = 200.0;
  p.duration = 1.5 * platform::kMinutesPerDay;
  p.step = 2.0;
  return p;
}

TEST(SiteSimulator, RunsAndAccumulatesStories) {
  const graph::Digraph net = make_network(4000, 1);
  Platform plat(net, make_population(4000),
                std::make_unique<platform::VoteRatePolicy>(20, 5, 360.0));
  SiteSimulator sim(plat, fast_site(), mixed_traits(), stats::Rng(2));
  const SiteResult r = sim.run();
  EXPECT_GT(r.submissions, 150u);
  EXPECT_EQ(r.submissions, plat.story_count());
  EXPECT_EQ(r.traits.size(), r.submissions);
  EXPECT_GT(r.total_votes, r.submissions);  // at least some voting happened
}

TEST(SiteSimulator, SomeStoriesPromoteAndGatherMoreVotes) {
  const graph::Digraph net = make_network(4000, 3);
  Platform plat(net, make_population(4000),
                std::make_unique<platform::VoteRatePolicy>(15, 5, 360.0));
  SiteSimulator sim(plat, fast_site(), mixed_traits(), stats::Rng(4));
  const SiteResult r = sim.run();
  ASSERT_GT(r.promotions, 3u);
  double promoted_mean = 0.0;
  double upcoming_mean = 0.0;
  std::size_t upcoming_n = 0;
  for (platform::StoryId id = 0; id < plat.story_count(); ++id) {
    const platform::Story& s = plat.story(id);
    if (s.promoted()) {
      promoted_mean += static_cast<double>(s.vote_count());
    } else {
      upcoming_mean += static_cast<double>(s.vote_count());
      ++upcoming_n;
    }
  }
  promoted_mean /= static_cast<double>(r.promotions);
  upcoming_mean /= static_cast<double>(std::max<std::size_t>(1, upcoming_n));
  EXPECT_GT(promoted_mean, 2.0 * upcoming_mean);
}

TEST(SiteSimulator, VoteRecordsStayValid) {
  const graph::Digraph net = make_network(3000, 7);
  Platform plat(net, make_population(3000),
                std::make_unique<platform::VoteRatePolicy>(15, 5, 360.0));
  SiteSimulator sim(plat, fast_site(), mixed_traits(), stats::Rng(8));
  sim.run();
  for (platform::StoryId id = 0; id < plat.story_count(); ++id) {
    const platform::Story& s = plat.story(id);
    ASSERT_FALSE(s.voters.empty());
    EXPECT_EQ(s.voters.front(), s.submitter);
    std::set<UserId> seen;
    platform::Minutes prev = -1.0;
    for (std::size_t k = 0; k < s.vote_count(); ++k) {
      EXPECT_TRUE(seen.insert(s.voters[k]).second);
      EXPECT_GE(s.times[k], prev);
      prev = s.times[k];
    }
  }
}

TEST(SiteSimulator, DeterministicGivenSeeds) {
  auto run_once = [] {
    const graph::Digraph net = make_network(2000, 11);
    Platform plat(net, make_population(2000),
                  std::make_unique<platform::VoteRatePolicy>(15, 5, 360.0));
    SiteParams params = fast_site();
    params.duration = 0.5 * platform::kMinutesPerDay;
    SiteSimulator sim(plat, params, mixed_traits(), stats::Rng(12));
    sim.run();
    std::size_t votes = 0;
    for (platform::StoryId id = 0; id < plat.story_count(); ++id)
      votes += plat.story(id).vote_count();
    return std::pair(plat.story_count(), votes);
  };
  EXPECT_EQ(run_once(), run_once());
}

void mix_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;  // FNV-1a prime
  }
}

template <typename T>
void mix(std::uint64_t& h, const T& value) {
  mix_bytes(h, &value, sizeof value);
}

// Recorded digest: pins every RNG draw of the site simulator (submissions,
// queue and front-page discovery, the engaged fan pool), where
// DeterministicGivenSeeds only compares two runs of the same code. The hash
// covers every story's submitter, submission time, phase, promotion time,
// voters and vote times. A change that moves it changes ablation_attention.
TEST(SiteSimulator, RecordedDigest) {
  const graph::Digraph net = make_network(2000, 21);
  Platform plat(net, make_population(2000),
                std::make_unique<platform::VoteRatePolicy>(15, 5, 360.0));
  SiteParams params = fast_site();
  params.duration = platform::kMinutesPerDay;
  SiteSimulator sim(plat, params, mixed_traits(), stats::Rng(22));
  const SiteResult r = sim.run();
  ASSERT_GT(r.promotions, 0u);  // the digest covers the front-page path too

  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (platform::StoryId id = 0; id < plat.story_count(); ++id) {
    const platform::Story& s = plat.story(id);
    mix(h, s.submitter);
    mix(h, s.submitted_at);
    mix(h, static_cast<std::uint8_t>(s.phase));
    mix(h, s.promoted_at.value_or(-1.0));
    mix(h, static_cast<std::uint64_t>(s.vote_count()));
    mix_bytes(h, s.voters.data(), s.voters.size() * sizeof(UserId));
    mix_bytes(h, s.times.data(), s.times.size() * sizeof(platform::Minutes));
  }
  EXPECT_EQ(h, 0xc7c701d96db99718ull) << std::hex << "site digest 0x" << h;
}

TEST(SiteSimulator, RejectsBadConstruction) {
  const graph::Digraph net = make_network(500, 13);
  Platform plat(net, std::vector<UserProfile>(500),
                platform::make_june2006_policy());
  SiteParams bad = fast_site();
  bad.step = 0.0;
  EXPECT_THROW(SiteSimulator(plat, bad, mixed_traits(), stats::Rng(1)),
               std::invalid_argument);
  bad = fast_site();
  bad.duration = bad.step / 2.0;
  EXPECT_THROW(SiteSimulator(plat, bad, mixed_traits(), stats::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(SiteSimulator(plat, fast_site(), nullptr, stats::Rng(1)),
               std::invalid_argument);
}

TEST(SiteSimulator, AttentionCompetitionCapsTotalFrontPageVotes) {
  // Doubling the number of competing promoted stories must NOT double the
  // total front-page vote volume: the attention budget is shared. Compare
  // total votes under low and high submission rates.
  auto total_votes_at = [](double submissions_per_day) {
    const graph::Digraph net = make_network(4000, 17);
    Platform plat(net, make_population(4000),
                  std::make_unique<platform::VoteRatePolicy>(12, 5, 360.0));
    SiteParams params;
    params.submissions_per_day = submissions_per_day;
    params.duration = platform::kMinutesPerDay;
    params.step = 2.0;
    SiteSimulator sim(plat, params, mixed_traits(), stats::Rng(18));
    return sim.run().total_votes;
  };
  const std::size_t low = total_votes_at(100.0);
  const std::size_t high = total_votes_at(400.0);
  EXPECT_GT(high, low);              // more stories -> more total votes...
  EXPECT_LT(high, 4 * low);          // ...but sublinear (shared attention)
}

}  // namespace
}  // namespace digg::dynamics
