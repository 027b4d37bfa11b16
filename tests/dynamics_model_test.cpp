// The generative-model boundary: the determinism contract both simulators
// must honour (per-story split(story_id) substreams — story runs must not
// depend on RNG-consumption order).

#include "src/dynamics/model.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/data/synthetic.h"
#include "src/dynamics/stochastic_model.h"
#include "src/dynamics/vote_model.h"
#include "src/graph/generators.h"
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

std::unique_ptr<Site> make_site(const graph::Digraph& network) {
  return std::make_unique<Site>(
      network, std::vector<UserProfile>(network.node_count()),
      std::make_unique<VoteCountPolicy>(43));
}

/// Shrinks a model's horizon/step so test runs stay fast.
template <typename Params>
Params speed_up(Params params) {
  params.step = 4.0;
  params.horizon = platform::kMinutesPerDay;
  return params;
}

/// Model `id`'s simulator at test speed, built directly from its params.
std::unique_ptr<Simulator> make_sim(std::string_view id, const Site& site,
                                    stats::Rng rng) {
  if (id == kLegacyModelId)
    return std::make_unique<VoteSimulator>(site, speed_up(VoteModelParams{}),
                                           std::move(rng));
  return std::make_unique<StochasticSimulator>(
      site, speed_up(StochasticModelParams{}), std::move(rng));
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

}  // namespace
}  // namespace digg::dynamics
