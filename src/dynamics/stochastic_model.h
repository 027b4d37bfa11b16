#pragma once
// The rate-based stochastic user model of Hogg & Lerman, "Social Dynamics of
// Digg" (arXiv:1202.0031) — model id "stochastic" (model.h).
//
// Where the two-mechanism model (vote_model.h) treats the fan channel as an
// aggregate one-shot exposure pool, this model is built from *per-user
// activity rates*: each user visits the site as a Poisson process with rate
// ω_u (UserProfile::activity_rate) and splits attention across the three
// visibility channels of the paper's site model —
//
//   - friends interface: when a user becomes a fan-of-a-voter watcher, they
//     next check their Friends page after an Exponential(ω_u · w_friends)
//     delay (their own clock, not a shared pool rate) and consider the
//     story once — the interface only surfaces recent activity, so a
//     watcher who gets there after the recency window never sees it;
//   - upcoming queue: aggregate browsing traffic over the first pages,
//     decaying as newer submissions push the story down, plus an
//     age-independent background (search, external links);
//   - front page: aggregate traffic decaying with the novelty half-life
//     after promotion.
//
// Discovery voters are drawn activity-weighted per channel (front-page
// browsing weighted by ω_u · w_front, queue browsing by ω_u · w_upcoming),
// so the same heavy-tailed per-user vote counts emerge, with a
// channel-specific skew. Promotion is whatever policy the platform is
// configured with — the scenario layer (data/scenario.h) varies it.
//
// run_story runs the shared per-story stepper (step_story.h). RNG contract:
// as for every model (model.h), all of a story's draws come from its
// rng.split(story_id) substream; each tick fires the due watcher clocks in
// (time, user) order from a min-heap, then draws the browser count.

#include <cstdint>
#include <vector>

#include "src/digg/platform.h"
#include "src/digg/types.h"
#include "src/dynamics/model.h"
#include "src/stats/rng.h"

namespace digg::dynamics {

/// Rates and digg probabilities are constants in stochastic_model.cpp.
struct StochasticModelParams {
  /// Simulation step and horizon.
  Minutes step = 1.0;
  Minutes horizon = 4.0 * platform::kMinutesPerDay;
};

/// Drives stories through the rate-based stochastic model.
class StochasticSimulator final : public Simulator {
 public:
  StochasticSimulator(const platform::Site& site,
                      StochasticModelParams params, stats::Rng rng);

  StoryRun run_story(platform::StoryState& state,
                     const StoryTraits& traits) const override;

 private:
  const platform::Site* site_;
  StochasticModelParams params_;
  stats::Rng rng_;  // base stream; per-story draws come from rng_.split(id)
  stats::DiscreteSampler front_sampler_;     // ω_u · w_front, capped
  stats::DiscreteSampler upcoming_sampler_;  // ω_u · w_upcoming, capped
};

}  // namespace digg::dynamics
