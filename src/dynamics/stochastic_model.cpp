#include "src/dynamics/stochastic_model.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "src/dynamics/step_story.h"

namespace digg::dynamics {

StochasticSimulator::StochasticSimulator(const platform::Site& site,
                                         StochasticModelParams params,
                                         stats::Rng rng)
    : site_(&site),
      params_(params),
      rng_(std::move(rng)),
      front_sampler_(capped_sampler(
          site.users(), params_.discovery_activity_cap,
          [](const platform::UserProfile& u) {
            return u.activity_rate * u.front_page_weight;
          })),
      upcoming_sampler_(capped_sampler(
          site.users(), params_.discovery_activity_cap,
          [](const platform::UserProfile& u) {
            return u.activity_rate * u.upcoming_weight;
          })) {
  check_step("StochasticSimulator", params_.step, params_.horizon);
  if (params_.session_rate_scale <= 0.0)
    throw std::invalid_argument(
        "StochasticSimulator: session_rate_scale <= 0");
}

StoryRun StochasticSimulator::run_story(platform::StoryState& state,
                                        const StoryTraits& traits) const {
  const platform::Story& s = state.story;
  const platform::VisibilitySet& vis = state.visibility;
  const auto& users = site_->users();
  const double dt_days = params_.step / platform::kMinutesPerDay;

  // Per-watcher consideration clocks: when user u becomes a watcher, their
  // next Friends-page visit is Exponential(ω_u · w_friends · scale) away.
  // A min-heap keyed on (fire time, user) resolves the clocks in a
  // deterministic order; a clock that fires after the recency window is
  // dropped — that watcher never sees the story.
  using Clock = std::pair<Minutes, UserId>;  // compares time, then user
  std::priority_queue<Clock, std::vector<Clock>, std::greater<Clock>> clocks;

  return step_story(
      *site_, rng_, params_.step, params_.horizon, state, traits,
      [&](UserId watcher, Minutes t, stats::Rng& rng) {
        const double rate_per_day =
            (watcher < users.size()
                 ? users[watcher].activity_rate *
                       users[watcher].friends_interface_weight
                 : 1.0) *
            params_.friends_rate_scale * params_.session_rate_scale;
        if (rate_per_day <= 0.0) return;
        const Minutes delay =
            rng.exponential(rate_per_day / platform::kMinutesPerDay);
        if (delay <= params_.friends_recency_window)
          clocks.push({t + delay, watcher});
      },
      [&](Minutes t, bool promoted, stats::Rng& rng, auto&& fan_vote) {
        // Fire every clock due this step, then draw the browsers.
        const double p_fan = fan_digg_p(params_, traits, promoted);
        while (!clocks.empty() && clocks.top().first <= t) {
          const UserId watcher = clocks.top().second;
          clocks.pop();
          if (vis.has_voted(watcher)) continue;  // acted via another channel
          if (rng.bernoulli(p_fan)) fan_vote(watcher);
        }

        // Discovery channels: aggregate browsing traffic, Poisson per step;
        // each browser diggs with an appeal-dependent probability (browsing
        // and digging are separate events, unlike the two-mechanism model
        // where the discovery rate already folds the appeal in).
        if (!promoted) {
          const double queue_age = t - s.submitted_at;
          const double browse_rate =
              (params_.upcoming_browse_rate *
                   std::exp(-queue_age / params_.upcoming_visibility_decay) +
               params_.upcoming_background_rate) *
              params_.session_rate_scale * dt_days;
          return Discovery{
              rng.poisson(browse_rate),
              std::min(1.0, params_.upcoming_digg_floor +
                                params_.upcoming_digg_slope * traits.general),
              &upcoming_sampler_};
        }
        const double fp_age = t - *s.promoted_at;
        const double browse_rate =
            params_.front_page_browse_rate *
            std::pow(0.5, fp_age / params_.novelty_half_life) *
            params_.session_rate_scale * dt_days;
        return Discovery{
            rng.poisson(browse_rate),
            std::min(1.0, params_.front_page_digg_floor +
                              params_.front_page_digg_slope * traits.general),
            &front_sampler_};
      });
}

}  // namespace digg::dynamics
