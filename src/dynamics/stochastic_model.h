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

struct StochasticModelParams {
  /// Global multiplier on every user's activity rate ω_u (sessions/day) —
  /// the activity-mix scenarios scale the whole population up or down
  /// without regenerating profiles.
  double session_rate_scale = 1.0;
  /// Multiplier on the friends-interface share of a watcher's sessions:
  /// their consideration clock fires at ω_u · w_friends · this (per day).
  double friends_rate_scale = 2.0;
  /// A watcher who reaches the Friends page later than this after exposure
  /// never sees the story (the interface's recency window, §3: 48 hours).
  Minutes friends_recency_window = 48.0 * 60.0;
  /// Digg probability when a watcher considers the story:
  ///   p = floor + community_scale * community + general_scale * general.
  double fan_digg_floor = 0.015;
  double fan_digg_community_scale = 0.10;
  double fan_digg_general_scale = 0.05;
  /// Community-appeal multiplier after promotion (same §5.1 saturation
  /// argument as the two-mechanism model).
  double post_promotion_community_factor = 0.30;

  /// Aggregate upcoming-queue browsing reaching a just-submitted story
  /// (sessions/day), decaying exponentially with queue age.
  double upcoming_browse_rate = 500.0;
  Minutes upcoming_visibility_decay = 60.0;
  /// Age-independent browsing (deep-queue readers, search, external links).
  double upcoming_background_rate = 45.0;
  /// Digg probability of an upcoming-queue browser:
  ///   p = floor + slope * general.
  double upcoming_digg_floor = 0.05;
  double upcoming_digg_slope = 0.60;

  /// Aggregate front-page traffic at the moment of promotion (sessions/day),
  /// halving every novelty_half_life minutes (Wu–Huberman).
  double front_page_browse_rate = 2200.0;
  Minutes novelty_half_life = platform::kMinutesPerDay;
  /// Digg probability of a front-page browser: p = floor + slope * general.
  double front_page_digg_floor = 0.02;
  double front_page_digg_slope = 0.55;

  /// Per-user discovery weights are ω_u · channel weight, capped here
  /// (votes/day) so one hyperactive account cannot absorb an unbounded
  /// share of the discovery traffic (Fig. 2b's per-user tail).
  double discovery_activity_cap = 25.0;

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
