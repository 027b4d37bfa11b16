#pragma once
// The pluggable generative-model boundary. A dynamics::Model describes one
// theory of how votes accumulate on a story (the paper's two-mechanism
// model, Hogg & Lerman's rate-based stochastic model, ...); everything
// downstream — synthetic generation, streamed generation, the scenario
// presets, the CLI — drives models through this interface instead of
// hard-coding one implementation.
//
// Determinism / RNG contract:
//   - make_simulator() receives an Rng by value; the simulator owns it.
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
// Identity: id() is a stable string recorded in snapshots (DIGGSNAP
// MODELINFO section) and used by the CLI scenario parser. Renaming an id is
// a format break — old snapshots name the model that generated them.
//
// Parameters: params()/set_param() expose every numeric knob by name so
// benches and the scenario CLI can override them generically
// (--model-param step=2). Unknown names are rejected, not ignored.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/digg/platform.h"
#include "src/digg/types.h"
#include "src/stats/rng.h"
#include "src/stats/timeseries.h"

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
  stats::TimeSeries votes_over_time;  // cumulative votes, minute resolution
  std::size_t fan_channel_votes = 0;  // votes that arrived via the Friends
                                      // interface channel (network spread)
  std::size_t discovery_votes = 0;    // independent discovery (upcoming +
                                      // front page)
};

/// One numeric model parameter, exposed by name for CLI/bench overrides.
struct ModelParam {
  std::string name;
  double value = 0.0;
};

/// A per-run simulator instance bound to one site. Created by
/// Model::make_simulator; drives one story at a time from submission to its
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

/// A generative vote model: stable id + parameter set + simulator factory.
/// Models are value-like (clone()) so scenario specs can carry configured
/// instances.
class Model {
 public:
  virtual ~Model() = default;

  /// Stable identifier, recorded in snapshots and used by the CLI.
  [[nodiscard]] virtual std::string id() const = 0;

  /// Every numeric parameter by name, current values.
  [[nodiscard]] virtual std::vector<ModelParam> params() const = 0;
  /// Sets one parameter by name; returns false (and changes nothing) for
  /// unknown names.
  virtual bool set_param(std::string_view name, double value) = 0;

  [[nodiscard]] virtual std::unique_ptr<Model> clone() const = 0;

  /// Binds a simulator to `site`, owning `rng` as its base stream.
  /// The site must outlive the simulator.
  [[nodiscard]] virtual std::unique_ptr<Simulator> make_simulator(
      const platform::Site& site, stats::Rng rng) const = 0;
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
/// threads. Works with any Simulator (any registered model).
void simulate_each(const platform::Site& site, const Simulator& sim,
                   const std::vector<Submission>& submissions,
                   Minutes spacing_minutes,
                   const std::function<void(SimulatedStory&&)>& on_story);

/// simulate_each, collected: result k is story k.
[[nodiscard]] std::vector<SimulatedStory> simulate_batch(
    const platform::Site& site, const Simulator& sim,
    const std::vector<Submission>& submissions, Minutes spacing_minutes);

/// Stable ids of the built-in models (registered automatically).
inline constexpr char kLegacyModelId[] = "two-mechanism";
inline constexpr char kStochasticModelId[] = "stochastic";

/// Registers `prototype` under its id(). Returns false (and keeps the
/// existing registration) if the id is already taken. Thread-safe.
bool register_model(std::unique_ptr<Model> prototype);

/// True if a model with this id is registered.
[[nodiscard]] bool model_registered(std::string_view id);

/// All registered ids, sorted (builtins always present).
[[nodiscard]] std::vector<std::string> registered_model_ids();

/// Clone of the registered prototype (default parameters). Throws
/// std::invalid_argument naming the unknown id and listing known ones.
[[nodiscard]] std::unique_ptr<Model> make_model(std::string_view id);

}  // namespace digg::dynamics
