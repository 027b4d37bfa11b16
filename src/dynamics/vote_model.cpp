#include "src/dynamics/vote_model.h"

#include <cmath>

#include "src/dynamics/step_story.h"

namespace digg::dynamics {

/// Expected out-of-network discoveries per day for a story at the top of
/// the upcoming queue with general appeal 1. Decays with queue age as newer
/// submissions push the story off the first pages.
constexpr double kUpcomingDiscoveryRate = 300.0;
/// Minutes for a story to fall off the browsed pages of the upcoming queue
/// (1-2 submissions/minute, 15/page, ~3 pages browsed => ~45 min).
constexpr Minutes kUpcomingVisibilityDecay = 45.0;
/// Age-independent out-of-network discovery rate while upcoming (votes/day
/// at general appeal 1): deep-queue browsers, search, and "Digg it" buttons
/// on external sites (§4). This channel is what lets broadly interesting
/// stories from poorly connected submitters reach promotion.
constexpr double kUpcomingBackgroundRate = 25.0;
/// Out-of-network voters are drawn proportionally to their activity rate,
/// capped here (votes/day) so the single busiest user cannot absorb an
/// unbounded share — Fig. 2b's per-user vote counts top out at a few
/// hundred over the observation window.
constexpr double kDiscoveryActivityCap = 25.0;
/// Front-page votes/day for a story of general appeal 1 at the moment of
/// promotion; decays with the novelty half-life (~1 day). Fan-channel
/// amplification roughly doubles the discovery total.
constexpr double kFrontPageRate = 1300.0;

VoteSimulator::VoteSimulator(const platform::Site& site,
                             VoteModelParams params, stats::Rng rng)
    : site_(&site),
      params_(std::move(params)),
      rng_(std::move(rng)),
      discovery_sampler_(capped_sampler(
          site.users(), kDiscoveryActivityCap,
          [](const platform::UserProfile& u) { return u.activity_rate; })) {
  check_step("VoteSimulator", params_.step, params_.horizon);
}

StoryRun VoteSimulator::run_story(platform::StoryState& state,
                                  const StoryTraits& traits) const {
  const platform::Story& s = state.story;
  const double dt_days = params_.step / platform::kMinutesPerDay;
  // A switched-off channel runs at rate 0.0 (VoteModelParams::Channels).
  using Channels = VoteModelParams::Channels;
  const double consider_rate =
      params_.channels == Channels::kNoFanChannel ? 0.0 : kFanConsiderRate;
  const bool discovery_on = params_.channels != Channels::kNoDiscovery;
  const double upcoming_rate = discovery_on ? kUpcomingDiscoveryRate : 0.0;
  const double background_rate = discovery_on ? kUpcomingBackgroundRate : 0.0;
  const double front_page_rate = discovery_on ? kFrontPageRate : 0.0;
  EngagedFanPool pool;
  return step_story(
      *site_, rng_, params_.step, params_.horizon, state, traits,
      // Mechanism 2, network-based spread: a newly exposed watcher is
      // engaged (an active Friends-interface user) with probability scaled
      // by their activity.
      [&](UserId watcher, Minutes, stats::Rng& rng) {
        pool.engage(watcher, site_->users(), rng);
      },
      [&](Minutes t, bool promoted, stats::Rng& rng, auto&& fan_vote) {
        // Both counts are drawn before any vote: the considering pending
        // watchers first, then the independent discoveries.
        const std::int64_t considering =
            pool.draw_considering(consider_rate, dt_days, rng);
        // Mechanism 1, interest-based independent discovery: the rate
        // already folds the general appeal in, so every discoverer diggs.
        double discovery_rate = 0.0;
        if (!promoted) {
          const double queue_age = t - s.submitted_at;
          discovery_rate =
              (upcoming_rate *
                   std::exp(-queue_age / kUpcomingVisibilityDecay) +
               background_rate) *
              traits.general * dt_days;
        } else {
          const double fp_age = t - *s.promoted_at;
          discovery_rate = front_page_rate * traits.general *
                           std::pow(0.5, fp_age / kNoveltyHalfLife) *
                           dt_days;
        }
        const Discovery discovery{rng.poisson(discovery_rate), 1.0,
                                  &discovery_sampler_};
        pool.consider(considering, state.visibility,
                      fan_digg_p(kTwoMechanismFanDigg, traits, promoted), rng,
                      fan_vote);
        return discovery;
      });
}

}  // namespace digg::dynamics
