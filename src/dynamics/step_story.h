#pragma once
// What the generative models share: the per-story stepper both
// VoteSimulator and StochasticSimulator run, the helpers they had each
// copied, and the two-mechanism fan pool SiteSimulator also uses. DESIGN.md
// §11 gives each model's hooks and per-tick draw order.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/digg/platform.h"
#include "src/dynamics/model.h"
#include "src/stats/rng.h"

namespace digg::dynamics {

/// Throws std::invalid_argument, prefixed with `simulator`, unless
/// 0 < step <= horizon.
void check_step(const char* simulator, Minutes step, Minutes horizon);

/// Samples users by weight(profile), capped at `cap` and floored at 1e-6 so
/// no user is unreachable.
template <typename Weight>
[[nodiscard]] stats::DiscreteSampler capped_sampler(
    const std::vector<platform::UserProfile>& users, double cap,
    Weight&& weight) {
  std::vector<double> weights;
  weights.reserve(users.size());
  for (const platform::UserProfile& u : users)
    weights.push_back(std::max(1e-6, std::min(cap, weight(u))));
  return stats::DiscreteSampler(weights);
}

/// Digg probability of a fan who considers a story:
///   floor + community_scale * community + general_scale * general,
/// capped at 1. A broadly interesting story also appeals to fans, while the
/// community term lets narrowly interesting stories ride the network. Once
/// the story is promoted, fans judge it more like the general audience does
/// (the Friends interface is no longer the scarce discovery channel): the
/// community term is multiplied by post_promotion_community_factor, and a
/// small factor makes narrowly appealing stories *saturate* at low vote
/// counts (§5.1: they spread "within that community only").
struct FanDiggP {
  double floor, community_scale, general_scale;
  double post_promotion_community_factor;
};
[[nodiscard]] inline double fan_digg_p(const FanDiggP& c,
                                       const StoryTraits& traits,
                                       bool promoted) {
  const double community_scale =
      promoted ? c.community_scale * c.post_promotion_community_factor
               : c.community_scale;
  return std::min(1.0, c.floor + community_scale * traits.community +
                           c.general_scale * traits.general);
}

// The two-mechanism calibration SiteSimulator shares with VoteSimulator.
/// Keep mean_fans * p < 1 for random users or the cascade becomes
/// supercritical globally.
inline constexpr FanDiggP kTwoMechanismFanDigg{0.01, 0.08, 0.04, 0.25};
/// The fan channel is a one-shot exposure process: when a user becomes a
/// watcher (a fan of a prior voter), they will *consider* the story at most
/// once — the Friends interface only surfaces recent activity (§3's
/// 48-hour window), so a fan either acts on a story when they encounter it
/// or never does. This is the per-day rate at which a pending watcher gets
/// around to that encounter.
inline constexpr double kFanConsiderRate = 1.2;
/// Not every fan is an active Friends-interface user: a newly exposed
/// watcher is *engaged* (will ever consider the story) with probability
/// min(1, kFanEngagementScale * activity_rate). A mega-hub's audience is
/// mostly casual accounts, so its effective wave is a fraction of its fan
/// count — without this, a 15k-fan submitter trivially promotes anything.
inline constexpr double kFanEngagementScale = 0.5;
/// Front-page attention halves every day after promotion (Wu–Huberman).
inline constexpr Minutes kNoveltyHalfLife = platform::kMinutesPerDay;

/// Rejection-samples a user from `sampler` who has neither voted on nor
/// watches the story (a watcher meets it through the Friends interface, not
/// by browsing): at most 64 draws, nullopt if every draw was rejected.
[[nodiscard]] std::optional<UserId> pick_unexposed(
    const stats::DiscreteSampler& sampler, const platform::VisibilitySet& vis,
    stats::Rng& rng);

/// The two-mechanism model's one-shot fan channel: each newly exposed
/// watcher is engaged with probability min(1, kFanEngagementScale *
/// activity_rate), activity 1 for a user without a profile; each tick a
/// Poisson number of pending engaged watchers consider the story, once each.
class EngagedFanPool {
 public:
  void engage(UserId watcher, const std::vector<platform::UserProfile>& users,
              stats::Rng& rng) {
    const double engaged =
        kFanEngagementScale *
        (watcher < users.size() ? users[watcher].activity_rate : 1.0);
    if (rng.bernoulli(std::min(1.0, engaged))) pending_.push_back(watcher);
  }

  /// Poisson(pending * consider_rate * dt_days), capped at the pool size;
  /// an empty pool draws nothing.
  [[nodiscard]] std::int64_t draw_considering(double consider_rate,
                                              double dt_days,
                                              stats::Rng& rng) const {
    const auto pending = static_cast<std::int64_t>(pending_.size());
    return std::min<std::int64_t>(
        rng.poisson(static_cast<double>(pending) * consider_rate * dt_days),
        pending);
  }

  /// Retires `considering` random pending watchers (swap-remove). One who
  /// has not voted yet diggs with probability `digg_p`: vote(watcher).
  template <typename Vote>
  void consider(std::int64_t considering, const platform::VisibilitySet& vis,
                double digg_p, stats::Rng& rng, Vote&& vote) {
    for (std::int64_t k = 0; k < considering; ++k) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pending_.size()) - 1));
      const UserId candidate = pending_[idx];
      pending_[idx] = pending_.back();
      pending_.pop_back();
      if (vis.has_voted(candidate)) continue;  // acted via another channel
      if (rng.bernoulli(digg_p)) vote(candidate);
    }
  }

 private:
  std::vector<UserId> pending_;  // engaged watchers yet to consider
};

/// One tick of out-of-network discovery, as a model draws it: `browsers`
/// users reach the story, each diggs with probability `digg_p` (1 draws
/// nothing) and is drawn from `sampler` by pick_unexposed; the first failed
/// pick ends the tick's discovery.
struct Discovery {
  std::int64_t browsers = 0;
  double digg_p = 1.0;
  const stats::DiscreteSampler* sampler = nullptr;
};

/// Adds one finished story to the dynamics.* counters.
void count_story(const StoryRun& run, std::uint64_t ticks);

/// Simulates `state` in ticks of `step` until `horizon` or until the story
/// expires, drawing only from base.split(story id) (model.h). Each tick it
/// hands each newly exposed watcher, in exposure-log order, to
///   expose(UserId watcher, Minutes t, stats::Rng& rng),
/// then reads the phase once, before any vote, and calls
///   tick(Minutes t, bool promoted, stats::Rng& rng, auto&& fan_vote),
/// which makes the model's own draws in its own order, casts fan-channel
/// votes through fan_vote(UserId), and returns the tick's Discovery, which
/// the stepper then runs. A vote that promotes the story mid-tick leaves
/// the rest of that tick on its upcoming rates.
template <typename Expose, typename Tick>
StoryRun step_story(const platform::Site& site, const stats::Rng& base,
                    Minutes step, Minutes horizon,
                    platform::StoryState& state, const StoryTraits& traits,
                    Expose&& expose, Tick&& tick) {
  if (traits.general < 0.0 || traits.general > 1.0 ||
      traits.community < 0.0 || traits.community > 1.0)
    throw std::invalid_argument("run_story: traits outside [0,1]");
  const platform::Story& s = state.story;
  const platform::VisibilitySet& vis = state.visibility;
  stats::Rng rng = base.split(s.id);
  StoryRun run;
  run.story = s.id;
  std::size_t exposure_cursor = 0;
  std::uint64_t ticks = 0;
  for (Minutes t = s.submitted_at + step; t - s.submitted_at <= horizon;
       t += step) {
    // Expiry is the story's own check: nothing else touches this state.
    site.expire_if_stale(state, t);
    if (s.phase == platform::StoryPhase::kExpired) break;
    ++ticks;
    const std::vector<UserId>& log = vis.exposure_log();
    for (; exposure_cursor < log.size(); ++exposure_cursor)
      expose(log[exposure_cursor], t, rng);
    const Discovery discovery =
        tick(t, s.phase == platform::StoryPhase::kFrontPage, rng,
             [&](UserId fan) {
               site.vote(state, fan, t);
               ++run.fan_channel_votes;
             });
    for (std::int64_t k = 0; k < discovery.browsers; ++k) {
      if (!rng.bernoulli(discovery.digg_p)) continue;
      const std::optional<UserId> voter =
          pick_unexposed(*discovery.sampler, vis, rng);
      if (!voter) break;
      site.vote(state, *voter, t);
      ++run.discovery_votes;
    }
  }
  count_story(run, ticks);
  return run;
}

}  // namespace digg::dynamics
