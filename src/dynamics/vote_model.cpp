#include "src/dynamics/vote_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/obs/metrics.h"

namespace digg::dynamics {

namespace {

std::vector<double> capped_activity_weights(
    const std::vector<platform::UserProfile>& users, double cap) {
  std::vector<double> weights;
  weights.reserve(users.size());
  for (const platform::UserProfile& u : users)
    weights.push_back(std::max(1e-6, std::min(cap, u.activity_rate)));
  return weights;
}

}  // namespace

VoteSimulator::VoteSimulator(const platform::Site& site,
                             VoteModelParams params, stats::Rng rng)
    : site_(&site),
      params_(std::move(params)),
      rng_(std::move(rng)),
      discovery_sampler_(capped_activity_weights(
          site.users(), params_.discovery_activity_cap)) {
  if (params_.step <= 0.0)
    throw std::invalid_argument("VoteSimulator: step <= 0");
  if (params_.horizon < params_.step)
    throw std::invalid_argument("VoteSimulator: horizon < step");
}

bool VoteSimulator::pick_discovery_voter(const platform::VisibilitySet& vis,
                                         stats::Rng& rng,
                                         UserId& out_voter) const {
  // Rejection-sample an out-of-network voter, weighted by (capped) activity:
  // Fig. 2(b)'s heavy-tailed per-user vote counts come from this skew, while
  // the long inactive tail is what makes most voters vote only once.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto user = static_cast<UserId>(discovery_sampler_.sample(rng));
    if (!vis.has_voted(user) && !vis.can_see(user)) {
      out_voter = user;
      return true;
    }
  }
  return false;
}

StoryRun VoteSimulator::run_story(platform::StoryState& state,
                                  const StoryTraits& traits) const {
  if (traits.general < 0.0 || traits.general > 1.0 ||
      traits.community < 0.0 || traits.community > 1.0)
    throw std::invalid_argument("run_story: traits outside [0,1]");

  const platform::Story& s = state.story;
  const platform::VisibilitySet& vis = state.visibility;
  // The Model RNG contract (model.h): every draw for this story comes from
  // a substream keyed on the story id, derived from the base stream's seed —
  // independent of how many stories ran before, which unpins story order.
  stats::Rng rng = rng_.split(s.id);

  StoryRun run;
  run.story = s.id;
  const Minutes t0 = s.submitted_at;

  const double dt_days = params_.step / platform::kMinutesPerDay;
  auto fan_digg_p_now = [&](bool promoted) {
    const double community_scale =
        promoted ? params_.fan_digg_community_scale *
                       params_.post_promotion_community_factor
                 : params_.fan_digg_community_scale;
    return std::min(1.0, params_.fan_digg_floor +
                             community_scale * traits.community +
                             params_.fan_digg_general_scale * traits.general);
  };

  // One-shot exposure bookkeeping for the fan channel: `pending` holds
  // watchers who have not yet considered the story; `pool_cursor` tracks how
  // much of the visibility exposure log has been ingested.
  std::vector<UserId> pending;
  std::size_t pool_cursor = 0;

  std::uint64_t ticks = 0;
  for (Minutes t = t0 + params_.step; t - t0 <= params_.horizon;
       t += params_.step) {
    // Expiry is the story's own check: nothing else touches this state.
    site_->expire_if_stale(state, t);
    if (s.phase == platform::StoryPhase::kExpired) break;
    ++ticks;

    // Mechanism 2: network-based spread. Ingest newly exposed watchers —
    // each is engaged (an active Friends-interface user) with probability
    // scaled by their activity — then let a Poisson-distributed number of
    // pending watchers consider the story this step.
    {
      const auto& log = vis.exposure_log();
      const auto& users = site_->users();
      for (; pool_cursor < log.size(); ++pool_cursor) {
        const UserId watcher = log[pool_cursor];
        const double engaged =
            params_.fan_engagement_scale *
            (watcher < users.size() ? users[watcher].activity_rate : 1.0);
        if (rng.bernoulli(std::min(1.0, engaged)))
          pending.push_back(watcher);
      }
    }
    const double consider_mean = static_cast<double>(pending.size()) *
                                 params_.fan_consider_rate * dt_days;
    // Mechanism 1: interest-based independent discovery.
    double discovery_rate = 0.0;
    if (s.phase == platform::StoryPhase::kUpcoming) {
      const double queue_age = t - t0;
      const double effective_g =
          params_.upcoming_quality_floor +
          (1.0 - params_.upcoming_quality_floor) * traits.general;
      discovery_rate =
          (params_.upcoming_discovery_rate *
               std::exp(-queue_age / params_.upcoming_visibility_decay) +
           params_.upcoming_background_rate) *
          effective_g * dt_days;
    } else {  // front page
      const double fp_age = t - *s.promoted_at;
      discovery_rate = params_.front_page_rate * traits.general *
                       std::pow(0.5, fp_age / params_.novelty_half_life) *
                       dt_days;
    }

    const std::int64_t considering =
        std::min<std::int64_t>(rng.poisson(consider_mean),
                               static_cast<std::int64_t>(pending.size()));
    const std::int64_t discovery_votes = rng.poisson(discovery_rate);
    const double fan_digg_p =
        fan_digg_p_now(s.phase == platform::StoryPhase::kFrontPage);

    for (std::int64_t k = 0; k < considering; ++k) {
      // Draw a random pending watcher and retire them (one-shot).
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pending.size()) - 1));
      const UserId candidate = pending[idx];
      pending[idx] = pending.back();
      pending.pop_back();
      if (vis.has_voted(candidate)) continue;  // acted via another channel
      if (rng.bernoulli(fan_digg_p)) {
        site_->vote(state, candidate, t);
        ++run.fan_channel_votes;
      }
    }
    for (std::int64_t k = 0; k < discovery_votes; ++k) {
      UserId voter;
      if (!pick_discovery_voter(vis, rng, voter)) break;
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
