// The generative-model boundary: the determinism contract both simulators
// must honour (per-story split(story_id) substreams — story runs must not
// depend on RNG-consumption order), and the per-story skeleton they share.

#include "src/dynamics/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/data/synthetic.h"
#include "src/dynamics/stochastic_model.h"
#include "src/dynamics/vote_model.h"
#include "src/graph/generators.h"
#include "src/obs/metrics.h"
#include "src/runtime/thread_pool.h"

namespace digg::dynamics {
namespace {

using platform::Site;
using platform::StoryState;
using platform::UserProfile;
using platform::VoteCountPolicy;

graph::Digraph make_network(std::uint64_t seed, std::size_t users) {
  stats::Rng rng(seed);
  graph::PreferentialAttachmentParams params;
  params.node_count = users;
  params.mean_out_degree = 4.0;
  return graph::preferential_attachment(params, rng);
}

std::unique_ptr<Site> make_site(const graph::Digraph& network,
                                std::size_t promotion_threshold = 43) {
  return std::make_unique<Site>(
      network, std::vector<UserProfile>(network.node_count()),
      std::make_unique<VoteCountPolicy>(promotion_threshold));
}

/// Shrinks a model's horizon/step so test runs stay fast.
template <typename Params>
Params speed_up(Params params, Minutes step, Minutes horizon) {
  params.step = step;
  params.horizon = horizon;
  return params;
}

/// Model `id`'s simulator, built directly from its params with `step` and
/// `horizon` overridden (test speed by default).
std::unique_ptr<Simulator> make_sim(
    std::string_view id, const Site& site, stats::Rng rng,
    Minutes step = 4.0, Minutes horizon = platform::kMinutesPerDay) {
  if (id == kLegacyModelId)
    return std::make_unique<VoteSimulator>(
        site, speed_up(VoteModelParams{}, step, horizon), std::move(rng));
  return std::make_unique<StochasticSimulator>(
      site, speed_up(StochasticModelParams{}, step, horizon), std::move(rng));
}

// The model-id factory (SyntheticParams::make_simulator) rejects an unknown
// id with a message that names it and lists every known id.
TEST(ModelRegistry, UnknownIdThrowsListingKnownIds) {
  const graph::Digraph network = make_network(3, 200);
  const auto site = make_site(network);
  data::SyntheticParams params;
  params.model_id = "no-such-model";
  try {
    (void)params.make_simulator(*site, stats::Rng(1));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("no-such-model"), std::string::npos) << what;
    // The error must name the valid choices — it doubles as CLI help.
    EXPECT_NE(what.find(kLegacyModelId), std::string::npos) << what;
    EXPECT_NE(what.find(kStochasticModelId), std::string::npos) << what;
  }
}

// The determinism contract: a story's votes depend only on (seed,
// story_id, submission), never on which other stories were simulated
// first. One simulator running both stories and one running only the
// second must produce bit-identical votes for the shared story.
TEST(ModelDeterminism, StoryRunsAreRngOrderIndependent) {
  const graph::Digraph network = make_network(5, 2000);
  const auto site = make_site(network);
  for (const std::string_view id : kModelIds) {
    const auto sim_a = make_sim(id, *site, stats::Rng(99));
    StoryState a0 = site->submit(0, 0, 0.8, 0.0);
    StoryState a1 = site->submit(1, 40, 0.6, 30.0);
    (void)sim_a->run_story(a0, {0.8, 0.5});
    (void)sim_a->run_story(a1, {0.6, 0.4});

    const auto sim_b = make_sim(id, *site, stats::Rng(99));
    StoryState b1 = site->submit(1, 40, 0.6, 30.0);
    (void)sim_b->run_story(b1, {0.6, 0.4});  // story 0 never simulated

    EXPECT_EQ(a1.story.voters, b1.story.voters) << id;
    EXPECT_EQ(a1.story.times, b1.story.times) << id;
    ASSERT_GE(b1.story.vote_count(), 1u) << id;
  }
}

// Same seed, same story → same run, across separately-built simulators.
TEST(ModelDeterminism, SimulatorsAreReproducible) {
  const graph::Digraph network = make_network(6, 2000);
  for (const std::string_view id : kModelIds) {
    std::vector<platform::Minutes> times[2];
    for (int rep = 0; rep < 2; ++rep) {
      const auto site = make_site(network);
      StoryState story = site->submit(0, 0, 0.7, 0.0);
      const auto sim = make_sim(id, *site, stats::Rng(123));
      (void)sim->run_story(story, {0.7, 0.6});
      times[rep] = story.story.times;
    }
    EXPECT_EQ(times[0], times[1]) << id;
  }
}

// Parallel driving: simulate_batch runs stories concurrently against one
// const site, and the stories must not depend on the thread count.
TEST(ModelDeterminism, BatchIsThreadCountInvariant) {
  const graph::Digraph network = make_network(7, 2000);
  const auto site = make_site(network);
  std::vector<Submission> submissions;
  for (UserId u = 0; u < 16; ++u)
    submissions.push_back({u * 100, {0.2 + 0.04 * u, 0.6}});
  for (const std::string_view id : kModelIds) {
    const auto sim = make_sim(id, *site, stats::Rng(31));
    runtime::set_default_threads(1);
    const std::vector<SimulatedStory> serial =
        simulate_batch(*site, *sim, submissions, 2.0);
    runtime::set_default_threads(4);
    const std::vector<SimulatedStory> parallel =
        simulate_batch(*site, *sim, submissions, 2.0);
    runtime::set_default_threads(0);
    ASSERT_EQ(serial.size(), parallel.size()) << id;
    for (std::size_t k = 0; k < serial.size(); ++k) {
      EXPECT_EQ(serial[k].story.voters, parallel[k].story.voters) << id;
      EXPECT_EQ(serial[k].story.times, parallel[k].story.times) << id;
      EXPECT_EQ(serial[k].story.phase, parallel[k].story.phase) << id;
      EXPECT_EQ(serial[k].run.fan_channel_votes,
                parallel[k].run.fan_channel_votes)
          << id;
    }
  }
}

// ---------------------------------------------------------------------------
// The per-story skeleton every model shares (step_story.h), run once per
// model id: argument checks, the tick loop's expiry stop and tick count, the
// channel breakdown and the vote record's invariants.

class ModelSkeleton : public ::testing::TestWithParam<std::string_view> {};

TEST_P(ModelSkeleton, RejectsBadTraitsAndParams) {
  const std::string_view id = GetParam();
  const graph::Digraph network = make_network(1, 500);
  const auto site = make_site(network);
  const auto sim = make_sim(id, *site, stats::Rng(1));
  StoryState st = site->submit(0, 0, 0.5, 0.0);
  EXPECT_THROW((void)sim->run_story(st, {-0.1, 0.5}), std::invalid_argument);
  EXPECT_THROW((void)sim->run_story(st, {0.5, 1.5}), std::invalid_argument);

  EXPECT_THROW((void)make_sim(id, *site, stats::Rng(1), /*step=*/0.0),
               std::invalid_argument);
  EXPECT_THROW((void)make_sim(id, *site, stats::Rng(1), /*step=*/-1.0),
               std::invalid_argument);
  EXPECT_THROW((void)make_sim(id, *site, stats::Rng(1), /*step=*/4.0,
                              /*horizon=*/2.0),
               std::invalid_argument);
}

TEST_P(ModelSkeleton, CountsTicksActuallyStepped) {
  // An unpromotable story expires after the 1-day lifetime, so it steps
  // lifetime / step ticks of the 3-day horizon, not horizon / step.
  const graph::Digraph network = make_network(1, 2000);
  const auto site = make_site(network, /*promotion_threshold=*/100000);
  const Minutes step = 2.0;
  const auto sim = make_sim(GetParam(), *site, stats::Rng(13), step,
                            3.0 * platform::kMinutesPerDay);
  obs::Counter& ticks =
      obs::Registry::global().counter("dynamics.ticks_simulated");
  const std::uint64_t before = ticks.value();
  StoryState st = site->submit(0, 0, 0.5, 0.0);
  (void)sim->run_story(st, {0.5, 0.5});
  EXPECT_EQ(st.story.phase, platform::StoryPhase::kExpired);
  EXPECT_EQ(ticks.value() - before,
            static_cast<std::uint64_t>(
                site->queue_params().upcoming_lifetime / step));
}

TEST_P(ModelSkeleton, ChannelCountsSumToVotes) {
  const graph::Digraph network = make_network(1, 2000);
  const auto site = make_site(network);
  const auto sim = make_sim(GetParam(), *site, stats::Rng(11));
  StoryState st = site->submit(0, 0, 0.7, 0.0);
  const StoryRun run = sim->run_story(st, {0.7, 0.6});
  EXPECT_GT(run.fan_channel_votes + run.discovery_votes, 0u);
  EXPECT_EQ(1 + run.fan_channel_votes + run.discovery_votes,
            st.story.vote_count());
}

TEST_P(ModelSkeleton, VotesAreChronologicalAndUnique) {
  const graph::Digraph network = make_network(1, 2000);
  const auto site = make_site(network);
  const auto sim = make_sim(GetParam(), *site, stats::Rng(3));
  StoryState st = site->submit(0, 0, 0.6, 0.0);
  (void)sim->run_story(st, {0.6, 0.6});
  const platform::Story& s = st.story;
  ASSERT_GE(s.vote_count(), 2u);
  EXPECT_EQ(s.voters.front(), s.submitter);
  std::set<UserId> seen;
  Minutes prev = -1.0;
  for (std::size_t k = 0; k < s.vote_count(); ++k) {
    EXPECT_TRUE(seen.insert(s.voters[k]).second);
    EXPECT_GE(s.times[k], prev);
    prev = s.times[k];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, ModelSkeleton, ::testing::ValuesIn(kModelIds),
    [](const ::testing::TestParamInfo<std::string_view>& info) {
      std::string name(info.param);
      std::ranges::replace(name, '-', '_');
      return name;
    });

}  // namespace
}  // namespace digg::dynamics
