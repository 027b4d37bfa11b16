#pragma once
// Whole-site simulation. The per-story VoteSimulator treats stories as
// independent — fine for reproducing the paper's per-story measurements,
// but real stories *compete*: the front page serves a bounded stream of
// reader attention, and the upcoming queue's first pages hold only the
// newest submissions (§3: 1-2 submissions per minute, 15 per page).
//
// SiteSimulator runs every story on one global clock:
//   - submissions arrive as a Poisson process; submitters are drawn by
//     their submission rates; story traits come from a caller-supplied
//     sampler;
//   - a global *attention budget* of front-page views per step is split
//     across promoted stories proportionally to novelty-decayed appeal —
//     a hot newcomer starves older stories (attention competition);
//   - the upcoming queue's discovery flow goes to the stories currently on
//     its first pages, plus the background channel;
//   - the fan channel is VoteSimulator's EngagedFanPool (step_story.h),
//     one per story, drawn from the site's single stream after the
//     discovery channels of each step.
//
// The ablation_attention bench contrasts this with the independence
// assumption, one SiteSimulator run per attention budget.

#include <functional>
#include <vector>

#include "src/digg/platform.h"
#include "src/dynamics/step_story.h"
#include "src/stats/rng.h"

namespace digg::dynamics {

/// Draws the latent traits for a new submission by `submitter`.
using TraitsSampler =
    std::function<StoryTraits(UserId submitter, stats::Rng& rng)>;

/// Discovery constants are in site_sim.cpp; the fan channel and novelty
/// half-life are the two-mechanism model's (step_story.h).
struct SiteParams {
  /// Story submissions per day, site-wide.
  double submissions_per_day = 300.0;
  /// Total front-page reader attention: expected story *impressions* per
  /// day across all promoted stories. A reader diggs an impressed story
  /// with probability proportional to its general appeal.
  double front_page_impressions_per_day = 40000.0;

  Minutes step = 1.0;
  Minutes duration = 3.0 * platform::kMinutesPerDay;
};

struct SiteResult {
  std::size_t submissions = 0;
  std::size_t promotions = 0;
  std::size_t total_votes = 0;
  /// Latent traits per story id (aligned with platform story ids).
  std::vector<StoryTraits> traits;
};

class SiteSimulator {
 public:
  SiteSimulator(platform::Platform& platform, SiteParams params,
                TraitsSampler traits, stats::Rng rng);

  /// Runs the whole site for params.duration. Stories and votes accumulate
  /// on the platform; the result summarizes the run.
  SiteResult run();

 private:
  struct StoryState {
    StoryTraits traits;
    EngagedFanPool fans;
    std::size_t exposure_cursor = 0;  // exposure-log entries seen by `fans`
    bool closed = false;  // expired, or promoted past the novelty horizon
  };

  platform::Platform* platform_;
  SiteParams params_;
  TraitsSampler traits_sampler_;
  stats::Rng rng_;
  std::vector<StoryState> states_;

  void fan_step(platform::StoryId id, Minutes now, double dt_days);
  bool pick_discovery_voter(const platform::VisibilitySet& vis,
                            UserId& out_voter);
};

}  // namespace digg::dynamics
