#include "src/dynamics/stochastic_model.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <utility>

#include "src/dynamics/step_story.h"

namespace digg::dynamics {

/// Multiplier on the friends-interface share of a watcher's sessions: their
/// consideration clock fires at ω_u · w_friends · this (per day).
constexpr double kFriendsRateScale = 2.0;
/// A watcher who reaches the Friends page later than this after exposure
/// never sees the story (the interface's recency window, §3: 48 hours).
constexpr Minutes kFriendsRecencyWindow = 48.0 * 60.0;
/// Digg probability when a watcher considers the story (fan_digg_p), with
/// the same §5.1 post-promotion saturation as the two-mechanism model.
constexpr FanDiggP kFanDigg{0.015, 0.10, 0.05, 0.30};

/// Aggregate upcoming-queue browsing reaching a just-submitted story
/// (sessions/day), decaying exponentially with queue age.
constexpr double kUpcomingBrowseRate = 500.0;
constexpr Minutes kUpcomingVisibilityDecay = 60.0;
/// Age-independent browsing (deep-queue readers, search, external links).
constexpr double kUpcomingBackgroundRate = 45.0;
/// Digg probability of an upcoming-queue browser: p = floor + slope * general.
constexpr double kUpcomingDiggFloor = 0.05;
constexpr double kUpcomingDiggSlope = 0.60;

/// Aggregate front-page traffic at the moment of promotion (sessions/day),
/// halving every kFrontPageHalfLife minutes (Wu–Huberman).
constexpr double kFrontPageBrowseRate = 2200.0;
constexpr Minutes kFrontPageHalfLife = platform::kMinutesPerDay;
/// Digg probability of a front-page browser: p = floor + slope * general.
constexpr double kFrontPageDiggFloor = 0.02;
constexpr double kFrontPageDiggSlope = 0.55;

/// Per-user discovery weights are ω_u · channel weight, capped here
/// (votes/day) so one hyperactive account cannot absorb an unbounded share
/// of the discovery traffic (Fig. 2b's per-user tail).
constexpr double kDiscoveryActivityCap = 25.0;

StochasticSimulator::StochasticSimulator(const platform::Site& site,
                                         StochasticModelParams params,
                                         stats::Rng rng)
    : site_(&site),
      params_(params),
      rng_(std::move(rng)),
      front_sampler_(capped_sampler(
          site.users(), kDiscoveryActivityCap,
          [](const platform::UserProfile& u) {
            return u.activity_rate * u.front_page_weight;
          })),
      upcoming_sampler_(capped_sampler(
          site.users(), kDiscoveryActivityCap,
          [](const platform::UserProfile& u) {
            return u.activity_rate * u.upcoming_weight;
          })) {
  check_step("StochasticSimulator", params_.step, params_.horizon);
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
            kFriendsRateScale;
        if (rate_per_day <= 0.0) return;
        const Minutes delay =
            rng.exponential(rate_per_day / platform::kMinutesPerDay);
        if (delay <= kFriendsRecencyWindow)
          clocks.push({t + delay, watcher});
      },
      [&](Minutes t, bool promoted, stats::Rng& rng, auto&& fan_vote) {
        // Fire every clock due this step, then draw the browsers.
        const double p_fan = fan_digg_p(kFanDigg, traits, promoted);
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
              (kUpcomingBrowseRate *
                   std::exp(-queue_age / kUpcomingVisibilityDecay) +
               kUpcomingBackgroundRate) *
              dt_days;
          return Discovery{
              rng.poisson(browse_rate),
              std::min(1.0, kUpcomingDiggFloor +
                                kUpcomingDiggSlope * traits.general),
              &upcoming_sampler_};
        }
        const double fp_age = t - *s.promoted_at;
        const double browse_rate =
            kFrontPageBrowseRate *
            std::pow(0.5, fp_age / kFrontPageHalfLife) * dt_days;
        return Discovery{
            rng.poisson(browse_rate),
            std::min(1.0, kFrontPageDiggFloor +
                              kFrontPageDiggSlope * traits.general),
            &front_sampler_};
      });
}

}  // namespace digg::dynamics
