#pragma once
// The two-mechanism vote model of §5.1, made generative — model id
// "two-mechanism" (model.h).
//
// The paper argues interest in a story spreads by two mechanisms:
//   1. interest-based — users unconnected to prior voters discover the story
//      independently (upcoming queue while unpromoted, front page after
//      promotion) and digg it with probability governed by its *general
//      appeal*;
//   2. network-based — fans of prior voters see the story in the Friends
//      interface ("social browsing") and digg it with probability governed
//      by its *community appeal*.
//
// A story interesting to a narrow community (high community appeal, low
// general appeal) spreads within that community only; a broadly interesting
// story spreads from many independent seeds. Running this model on a
// realistic fan network reproduces Figs. 1, 3 and 4 and gives the training
// signal for the §5.2 predictor.
//
// The simulation advances in fixed steps (default: one minute, matching the
// time resolution of Fig. 1); per-channel vote counts per step are Poisson.
// run_story runs the shared per-story stepper (step_story.h), so each story
// draws from the simulator's rng.split(story_id) substream (the RNG contract
// in model.h): a story's votes do not depend on which other stories ran
// before it.

#include <cstdint>
#include <vector>

#include "src/digg/platform.h"
#include "src/digg/types.h"
#include "src/dynamics/model.h"
#include "src/stats/rng.h"

namespace digg::dynamics {

struct VoteModelParams {
  /// The fan channel is a one-shot exposure process: when a user becomes a
  /// watcher (a fan of a prior voter), they will *consider* the story at
  /// most once — the Friends interface only surfaces recent activity (§3's
  /// 48-hour window), so a fan either acts on a story when they encounter
  /// it or never does. `fan_consider_rate` is the per-day rate at which a
  /// pending watcher gets around to that encounter.
  double fan_consider_rate = 1.2;
  /// Not every fan is an active Friends-interface user: a newly exposed
  /// watcher is *engaged* (will ever consider the story) with probability
  /// min(1, fan_engagement_scale * activity_rate). A mega-hub's audience is
  /// mostly casual accounts, so its effective wave is a fraction of its fan
  /// count — without this, a 15k-fan submitter trivially promotes anything.
  double fan_engagement_scale = 0.5;
  /// Digg probability at consideration:
  ///   p = floor + community_scale * community + general_scale * general,
  /// capped at 1. A broadly interesting story also appeals to fans
  /// (general_scale), while the community term is what lets narrowly
  /// interesting stories ride the network (§5.1). Keep mean_fans * p < 1
  /// for random users or the cascade becomes supercritical globally.
  double fan_digg_floor = 0.01;
  double fan_digg_community_scale = 0.08;
  double fan_digg_general_scale = 0.04;
  /// Community pull after promotion: once a story is on the front page the
  /// Friends-interface referral stops being the scarce discovery channel,
  /// and fans judge the story more like the general audience does. The
  /// community term is multiplied by this factor post-promotion; keeping it
  /// small is what makes narrowly-appealing stories *saturate* at low vote
  /// counts (§5.1: they spread "within that community only").
  double post_promotion_community_factor = 0.25;

  /// Expected out-of-network discoveries per day for a story at the top of
  /// the upcoming queue with general appeal 1. Decays with queue age as
  /// newer submissions push the story off the first pages.
  double upcoming_discovery_rate = 300.0;
  /// Minutes for a story to fall off the browsed pages of the upcoming
  /// queue (1-2 submissions/minute, 15/page, ~3 pages browsed => ~45 min).
  Minutes upcoming_visibility_decay = 45.0;
  /// Age-independent out-of-network discovery rate while upcoming (votes/day
  /// at general appeal 1): deep-queue browsers, search, and "Digg it"
  /// buttons on external sites (§4). This channel is what lets broadly
  /// interesting stories from poorly connected submitters reach promotion.
  double upcoming_background_rate = 25.0;
  /// Queue browsers digg mediocre fresh stories too: the upcoming channels
  /// use effective appeal = floor + (1-floor) * general. This floor controls
  /// how many of a dull story's early votes are out-of-network (Fig. 3b:
  /// only ~30% of front-page stories had half their first 10 in-network).
  double upcoming_quality_floor = 0.0;
  /// Out-of-network voters are drawn proportionally to their activity rate,
  /// capped here (votes/day) so the single busiest user cannot absorb an
  /// unbounded share — Fig. 2b's per-user vote counts top out at a few
  /// hundred over the observation window.
  double discovery_activity_cap = 25.0;

  /// Front-page votes/day for a story of general appeal 1 at the moment of
  /// promotion; decays with the Wu–Huberman novelty half-life (~1 day).
  /// Fan-channel amplification roughly doubles the discovery total.
  double front_page_rate = 1300.0;
  Minutes novelty_half_life = platform::kMinutesPerDay;

  /// Simulation step and horizon. 4 days saturates vote counts (Fig. 1).
  Minutes step = 1.0;
  Minutes horizon = 4.0 * platform::kMinutesPerDay;
};

/// Drives stories through the two-mechanism vote model.
class VoteSimulator final : public Simulator {
 public:
  VoteSimulator(const platform::Site& site, VoteModelParams params,
                stats::Rng rng);

  StoryRun run_story(platform::StoryState& state,
                     const StoryTraits& traits) const override;

 private:
  const platform::Site* site_;
  VoteModelParams params_;
  stats::Rng rng_;  // base stream; per-story draws come from rng_.split(id)
  /// Out-of-network voters, weighted by capped activity: Fig. 2(b)'s
  /// heavy-tailed per-user vote counts come from this skew, while the long
  /// inactive tail is what makes most voters vote only once.
  stats::DiscreteSampler discovery_sampler_;
};

}  // namespace digg::dynamics
