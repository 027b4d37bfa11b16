#include "src/dynamics/vote_model.h"

#include <cmath>

#include "src/dynamics/step_story.h"

namespace digg::dynamics {

VoteSimulator::VoteSimulator(const platform::Site& site,
                             VoteModelParams params, stats::Rng rng)
    : site_(&site),
      params_(std::move(params)),
      rng_(std::move(rng)),
      discovery_sampler_(capped_sampler(
          site.users(), params_.discovery_activity_cap,
          [](const platform::UserProfile& u) { return u.activity_rate; })) {
  check_step("VoteSimulator", params_.step, params_.horizon);
}

StoryRun VoteSimulator::run_story(platform::StoryState& state,
                                  const StoryTraits& traits) const {
  const platform::Story& s = state.story;
  const double dt_days = params_.step / platform::kMinutesPerDay;
  EngagedFanPool pool;
  return step_story(
      *site_, rng_, params_.step, params_.horizon, state, traits,
      // Mechanism 2, network-based spread: a newly exposed watcher is
      // engaged (an active Friends-interface user) with probability scaled
      // by their activity.
      [&](UserId watcher, Minutes, stats::Rng& rng) {
        pool.engage(watcher, site_->users(), params_.fan_engagement_scale,
                    rng);
      },
      [&](Minutes t, bool promoted, stats::Rng& rng, auto&& fan_vote) {
        // Both counts are drawn before any vote: the considering pending
        // watchers first, then the independent discoveries.
        const std::int64_t considering =
            pool.draw_considering(params_.fan_consider_rate, dt_days, rng);
        // Mechanism 1, interest-based independent discovery: the rate
        // already folds the general appeal in, so every discoverer diggs.
        double discovery_rate = 0.0;
        if (!promoted) {
          const double queue_age = t - s.submitted_at;
          const double effective_g =
              params_.upcoming_quality_floor +
              (1.0 - params_.upcoming_quality_floor) * traits.general;
          discovery_rate =
              (params_.upcoming_discovery_rate *
                   std::exp(-queue_age / params_.upcoming_visibility_decay) +
               params_.upcoming_background_rate) *
              effective_g * dt_days;
        } else {
          const double fp_age = t - *s.promoted_at;
          discovery_rate = params_.front_page_rate * traits.general *
                           std::pow(0.5, fp_age / params_.novelty_half_life) *
                           dt_days;
        }
        const Discovery discovery{rng.poisson(discovery_rate), 1.0,
                                  &discovery_sampler_};
        pool.consider(considering, state.visibility,
                      fan_digg_p(params_, traits, promoted), rng, fan_vote);
        return discovery;
      });
}

}  // namespace digg::dynamics
