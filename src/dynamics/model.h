#pragma once
// The generative-model boundary. A Simulator drives one theory of how votes
// accumulate on a story; the set of theories is closed and fixed at compile
// time: the paper's two-mechanism model (vote_model.h) and Hogg & Lerman's
// rate-based stochastic model (stochastic_model.h). Synthetic generation
// picks one by id from SyntheticParams (data/synthetic.h).
//
// Determinism / RNG contract:
//   - A simulator receives an Rng by value at construction and owns it.
//   - A simulator derives each story's draws from rng.split(story_id), a
//     counter-based substream keyed on the *seed* (stats/rng.h). Story runs
//     therefore do not depend on RNG-consumption order: simulating stories
//     {0,1,2} or just {2} produces bit-identical votes for story 2 (given
//     the same submissions).
//   - run_story reads only the const site and its own story's state, and
//     must not draw from any other stream. simulate_each relies on both to
//     run stories in parallel: the corpus is bit-identical for any thread
//     count, eager or streamed (data/synthetic.cpp).
//
// Identity: each model has a stable id string (kModelIds below), recorded
// in snapshots (DIGGSNAP MODELINFO section). Renaming an id is a format
// break — old snapshots name the model that generated them.

#include <array>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "src/digg/platform.h"
#include "src/digg/types.h"
#include "src/stats/rng.h"

namespace digg::dynamics {

using platform::Minutes;
using platform::StoryId;
using platform::UserId;

/// Latent per-story appeal. `general` doubles as Story::quality on the
/// platform; `community` only matters to fans of prior voters.
struct StoryTraits {
  double general = 0.2;    // in [0,1]
  double community = 0.2;  // in [0,1]
};

/// Result of simulating one story to its horizon.
struct StoryRun {
  StoryId story = 0;
  std::size_t fan_channel_votes = 0;  // votes that arrived via the Friends
                                      // interface channel (network spread)
  std::size_t discovery_votes = 0;    // independent discovery (upcoming +
                                      // front page)
};

/// A per-run simulator instance bound to one site (VoteSimulator or
/// StochasticSimulator); drives one story at a time from submission to its
/// horizon, recording votes on the story's own state (promotion fires
/// through the site's policy, whichever is configured).
class Simulator {
 public:
  virtual ~Simulator() = default;

  /// Simulates the full lifetime of an already-submitted story: steps
  /// `state` against the const site until the horizon, or until the story
  /// expires (still upcoming past the queue lifetime). Traits' `general`
  /// should match the story's quality. All randomness comes from the
  /// simulator's rng.split(id) substream (see the contract above), so
  /// concurrent calls on distinct states are safe.
  virtual StoryRun run_story(platform::StoryState& state,
                             const StoryTraits& traits) const = 0;
};

/// One finished story: its final record and the run's channel breakdown.
struct SimulatedStory {
  platform::Story story;
  StoryRun run;
};

/// A story to simulate: its submitter and latent traits.
using Submission = std::pair<UserId, StoryTraits>;

/// Submits story k (id k) at k * spacing_minutes and simulates it to its
/// horizon. Stories run in parallel on the runtime pool, each on its own
/// state against the shared site, and reach `on_story` in id order through
/// a reorder window of 64 stories per pool thread
/// (runtime::parallel_for_ordered). The output is therefore bit-identical
/// for any thread count. `on_story` calls never overlap but may run on pool
/// threads. Works with either Simulator.
void simulate_each(const platform::Site& site, const Simulator& sim,
                   const std::vector<Submission>& submissions,
                   Minutes spacing_minutes,
                   const std::function<void(SimulatedStory&&)>& on_story);

/// simulate_each, collected: result k is story k.
[[nodiscard]] std::vector<SimulatedStory> simulate_batch(
    const platform::Site& site, const Simulator& sim,
    const std::vector<Submission>& submissions, Minutes spacing_minutes);

/// Stable ids of the two models.
inline constexpr char kLegacyModelId[] = "two-mechanism";
inline constexpr char kStochasticModelId[] = "stochastic";

/// Every model id this build can generate or load.
inline constexpr std::array<std::string_view, 2> kModelIds = {
    kLegacyModelId, kStochasticModelId};

}  // namespace digg::dynamics
