#include "src/dynamics/stochastic_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/obs/metrics.h"

namespace digg::dynamics {

namespace {

std::vector<double> channel_weights(
    const std::vector<platform::UserProfile>& users, double cap,
    double platform::UserProfile::*channel) {
  std::vector<double> weights;
  weights.reserve(users.size());
  for (const platform::UserProfile& u : users)
    weights.push_back(
        std::max(1e-6, std::min(cap, u.activity_rate * (u.*channel))));
  return weights;
}

}  // namespace

StochasticSimulator::StochasticSimulator(const platform::Site& site,
                                         StochasticModelParams params,
                                         stats::Rng rng)
    : site_(&site),
      params_(params),
      rng_(std::move(rng)),
      front_sampler_(channel_weights(site.users(),
                                     params_.discovery_activity_cap,
                                     &platform::UserProfile::front_page_weight)),
      upcoming_sampler_(
          channel_weights(site.users(), params_.discovery_activity_cap,
                          &platform::UserProfile::upcoming_weight)) {
  if (params_.step <= 0.0)
    throw std::invalid_argument("StochasticSimulator: step <= 0");
  if (params_.horizon < params_.step)
    throw std::invalid_argument("StochasticSimulator: horizon < step");
  if (params_.session_rate_scale <= 0.0)
    throw std::invalid_argument(
        "StochasticSimulator: session_rate_scale <= 0");
}

bool StochasticSimulator::pick_browser(const stats::DiscreteSampler& sampler,
                                       const platform::VisibilitySet& vis,
                                       stats::Rng& rng,
                                       UserId& out_voter) const {
  // Rejection-sample a channel browser who has not acted on the story yet.
  // Watchers are excluded too: a fan of a prior voter encounters the story
  // through their Friends page clock, not through queue browsing.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto user = static_cast<UserId>(sampler.sample(rng));
    if (!vis.has_voted(user) && !vis.can_see(user)) {
      out_voter = user;
      return true;
    }
  }
  return false;
}

StoryRun StochasticSimulator::run_story(platform::StoryState& state,
                                        const StoryTraits& traits) const {
  if (traits.general < 0.0 || traits.general > 1.0 ||
      traits.community < 0.0 || traits.community > 1.0)
    throw std::invalid_argument("run_story: traits outside [0,1]");

  const platform::Story& s = state.story;
  const platform::VisibilitySet& vis = state.visibility;
  // Model RNG contract (model.h): one substream per story, keyed on its id.
  stats::Rng rng = rng_.split(s.id);

  StoryRun run;
  run.story = s.id;
  const Minutes t0 = s.submitted_at;

  const double dt_days = params_.step / platform::kMinutesPerDay;
  const auto fan_digg_p = [&](bool promoted) {
    const double community_scale =
        promoted ? params_.fan_digg_community_scale *
                       params_.post_promotion_community_factor
                 : params_.fan_digg_community_scale;
    return std::min(1.0, params_.fan_digg_floor +
                             community_scale * traits.community +
                             params_.fan_digg_general_scale * traits.general);
  };

  // Per-watcher consideration clocks: when user u becomes a watcher, their
  // next Friends-page visit is Exponential(ω_u · w_friends · scale) away.
  // A min-heap keyed on (fire time, user) resolves the clocks in a
  // deterministic order; a clock that fires after the recency window is
  // dropped — that watcher never sees the story.
  using Clock = std::pair<Minutes, UserId>;  // compares time, then user
  std::priority_queue<Clock, std::vector<Clock>, std::greater<Clock>> clocks;
  std::size_t pool_cursor = 0;

  const auto& users = site_->users();
  std::uint64_t ticks = 0;
  for (Minutes t = t0 + params_.step; t - t0 <= params_.horizon;
       t += params_.step) {
    // Expiry is the story's own check: nothing else touches this state.
    site_->expire_if_stale(state, t);
    if (s.phase == platform::StoryPhase::kExpired) break;
    ++ticks;

    // Friends channel: wind each newly exposed watcher's clock.
    {
      const auto& log = vis.exposure_log();
      for (; pool_cursor < log.size(); ++pool_cursor) {
        const UserId watcher = log[pool_cursor];
        const double rate_per_day =
            (watcher < users.size()
                 ? users[watcher].activity_rate *
                       users[watcher].friends_interface_weight
                 : 1.0) *
            params_.friends_rate_scale * params_.session_rate_scale;
        if (rate_per_day <= 0.0) continue;
        const Minutes delay =
            rng.exponential(rate_per_day / platform::kMinutesPerDay);
        if (delay <= params_.friends_recency_window)
          clocks.push({t + delay, watcher});
      }
    }

    // Fire every clock due this step.
    const bool promoted = s.phase == platform::StoryPhase::kFrontPage;
    const double p_fan = fan_digg_p(promoted);
    while (!clocks.empty() && clocks.top().first <= t) {
      const UserId watcher = clocks.top().second;
      clocks.pop();
      if (vis.has_voted(watcher)) continue;  // acted via another channel
      if (rng.bernoulli(p_fan)) {
        site_->vote(state, watcher, t);
        ++run.fan_channel_votes;
      }
    }

    // Discovery channels: aggregate browsing traffic, Poisson per step;
    // each browser diggs with an appeal-dependent probability (browsing
    // and digging are separate events, unlike the two-mechanism model
    // where the discovery rate already folds the appeal in).
    double browse_rate = 0.0;
    double p_digg = 0.0;
    const stats::DiscreteSampler* sampler = nullptr;
    if (!promoted) {
      const double queue_age = t - t0;
      browse_rate =
          (params_.upcoming_browse_rate *
               std::exp(-queue_age / params_.upcoming_visibility_decay) +
           params_.upcoming_background_rate) *
          params_.session_rate_scale * dt_days;
      p_digg = std::min(1.0, params_.upcoming_digg_floor +
                                 params_.upcoming_digg_slope * traits.general);
      sampler = &upcoming_sampler_;
    } else {
      const double fp_age = t - *s.promoted_at;
      browse_rate = params_.front_page_browse_rate *
                    std::pow(0.5, fp_age / params_.novelty_half_life) *
                    params_.session_rate_scale * dt_days;
      p_digg =
          std::min(1.0, params_.front_page_digg_floor +
                            params_.front_page_digg_slope * traits.general);
      sampler = &front_sampler_;
    }
    const std::int64_t browsers = rng.poisson(browse_rate);
    for (std::int64_t k = 0; k < browsers; ++k) {
      if (!rng.bernoulli(p_digg)) continue;
      UserId voter;
      if (!pick_browser(*sampler, vis, rng, voter)) break;
      site_->vote(state, voter, t);
      ++run.discovery_votes;
    }
  }
  static obs::Counter& stories =
      obs::Registry::global().counter("dynamics.stories_simulated");
  static obs::Counter& ticks_simulated =
      obs::Registry::global().counter("dynamics.ticks_simulated");
  static obs::Counter& fan_votes =
      obs::Registry::global().counter("dynamics.fan_votes");
  static obs::Counter& discovery_votes =
      obs::Registry::global().counter("dynamics.discovery_votes");
  stories.inc();
  ticks_simulated.inc(ticks);
  fan_votes.inc(run.fan_channel_votes);
  discovery_votes.inc(run.discovery_votes);
  return run;
}

}  // namespace digg::dynamics
