#include "src/dynamics/site_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/obs/metrics.h"

namespace digg::dynamics {

/// Digg probability per impression at general appeal 1.
constexpr double kImpressionDiggProb = 0.12;
/// Upcoming first-pages discovery: impressions/day over the newest
/// `browsed_pages` worth of stories.
constexpr double kUpcomingImpressionsPerDay = 25000.0;
/// Background discovery, votes/day per upcoming story at appeal 1.
constexpr double kUpcomingBackgroundRate = 25.0;

SiteSimulator::SiteSimulator(platform::Platform& platform, SiteParams params,
                             TraitsSampler traits, stats::Rng rng)
    : platform_(&platform),
      params_(std::move(params)),
      traits_sampler_(std::move(traits)),
      rng_(std::move(rng)) {
  if (!traits_sampler_)
    throw std::invalid_argument("SiteSimulator: null traits sampler");
  check_step("SiteSimulator", params_.step, params_.duration);
}

bool SiteSimulator::pick_discovery_voter(const platform::VisibilitySet& vis,
                                         UserId& out_voter) {
  const auto n = static_cast<std::int64_t>(platform_->users().size());
  for (int attempt = 0; attempt < 32; ++attempt) {
    // Activity-skewed mixture: half head-biased, half uniform (cheap
    // approximation of the per-user weighting; the site simulator trades a
    // little fidelity for running every story at once).
    std::int64_t candidate;
    if (rng_.bernoulli(0.5)) {
      const double u = rng_.uniform();
      candidate = std::min<std::int64_t>(
          static_cast<std::int64_t>(u * u * static_cast<double>(n)), n - 1);
    } else {
      candidate = rng_.uniform_int(0, n - 1);
    }
    const auto user = static_cast<UserId>(candidate);
    if (!vis.has_voted(user) && !vis.can_see(user)) {
      out_voter = user;
      return true;
    }
  }
  return false;
}

void SiteSimulator::fan_step(platform::StoryId id, Minutes now,
                             double dt_days) {
  StoryState& state = states_[id];
  const platform::VisibilitySet& vis = platform_->visibility(id);
  const std::vector<UserId>& log = vis.exposure_log();
  for (; state.exposure_cursor < log.size(); ++state.exposure_cursor)
    state.fans.engage(log[state.exposure_cursor], platform_->users(), rng_);
  const bool promoted =
      platform_->story(id).phase == platform::StoryPhase::kFrontPage;
  const double digg_p =
      fan_digg_p(kTwoMechanismFanDigg, state.traits, promoted);
  const std::int64_t considering =
      state.fans.draw_considering(kFanConsiderRate, dt_days, rng_);
  state.fans.consider(considering, vis, digg_p, rng_, [&](UserId fan) {
    platform_->vote(id, fan, now);
  });
}

SiteResult SiteSimulator::run() {
  SiteResult result;
  const double dt_days = params_.step / platform::kMinutesPerDay;
  const double submissions_per_step =
      params_.submissions_per_day * dt_days;

  // Submitter weights: heavier users submit more (rates from profiles; a
  // profile with zero rate never submits unless all rates are zero).
  const auto& users = platform_->users();
  std::vector<double> weights;
  weights.reserve(users.size());
  double weight_sum = 0.0;
  for (const platform::UserProfile& u : users) {
    weights.push_back(u.submission_rate);
    weight_sum += u.submission_rate;
  }
  if (weight_sum <= 0.0) std::fill(weights.begin(), weights.end(), 1.0);
  const stats::DiscreteSampler submitter_sampler(weights);

  for (Minutes now = params_.step; now <= params_.duration;
       now += params_.step) {
    platform_->expire_stale(now);

    // --- submissions -------------------------------------------------
    const std::int64_t arriving = rng_.poisson(submissions_per_step);
    for (std::int64_t k = 0; k < arriving; ++k) {
      const auto submitter =
          static_cast<UserId>(submitter_sampler.sample(rng_));
      const StoryTraits traits = traits_sampler_(submitter, rng_);
      const platform::StoryId id =
          platform_->submit(submitter, traits.general, now);
      StoryState state;
      state.traits = traits;
      states_.push_back(std::move(state));
      result.traits.push_back(traits);
      ++result.submissions;
      (void)id;
    }

    // --- upcoming queue discovery ------------------------------------
    // First-pages impressions go to the newest stories in the queue.
    const auto first_pages = platform_->upcoming().first_pages(
        platform_->queue_params().browsed_pages);
    if (!first_pages.empty()) {
      const double per_story_impressions =
          kUpcomingImpressionsPerDay * dt_days /
          static_cast<double>(first_pages.size());
      for (platform::StoryId id : first_pages) {
        const StoryState& state = states_[id];
        const double mean =
            per_story_impressions * kImpressionDiggProb * state.traits.general;
        const std::int64_t votes = rng_.poisson(mean);
        for (std::int64_t k = 0; k < votes; ++k) {
          UserId voter;
          if (!pick_discovery_voter(platform_->visibility(id), voter)) break;
          if (platform_->story(id).phase == platform::StoryPhase::kExpired)
            break;
          platform_->vote(id, voter, now);
        }
      }
    }
    // Background discovery for every live upcoming story.
    for (platform::StoryId id : platform_->upcoming().items()) {
      const StoryState& state = states_[id];
      const double mean =
          kUpcomingBackgroundRate * state.traits.general * dt_days;
      const std::int64_t votes = rng_.poisson(mean);
      for (std::int64_t k = 0; k < votes; ++k) {
        UserId voter;
        if (!pick_discovery_voter(platform_->visibility(id), voter)) break;
        if (platform_->story(id).phase != platform::StoryPhase::kUpcoming)
          break;
        platform_->vote(id, voter, now);
      }
    }

    // --- front page: shared attention budget -------------------------
    // Each promoted story's share of impressions is proportional to its
    // novelty-decayed weight; a fresh promotion crowds out older stories.
    std::vector<platform::StoryId> front;
    std::vector<double> share;
    double share_sum = 0.0;
    for (platform::StoryId id : platform_->front_page().items()) {
      const platform::Story& s = platform_->story(id);
      const double age = now - *s.promoted_at;
      const double novelty = std::pow(0.5, age / kNoveltyHalfLife);
      if (novelty < 1e-3) continue;  // aged out of the attention pool
      // Readers' digging keeps appealing stories visible longer (feeds sort
      // by engagement), so the share couples novelty with revealed appeal.
      const double w = novelty * (0.25 + 0.75 * states_[id].traits.general);
      front.push_back(id);
      share.push_back(w);
      share_sum += w;
    }
    if (share_sum > 0.0) {
      const double impressions =
          params_.front_page_impressions_per_day * dt_days;
      for (std::size_t i = 0; i < front.size(); ++i) {
        const platform::StoryId id = front[i];
        const double mean = impressions * share[i] / share_sum *
                            kImpressionDiggProb * states_[id].traits.general;
        const std::int64_t votes = rng_.poisson(mean);
        for (std::int64_t k = 0; k < votes; ++k) {
          UserId voter;
          if (!pick_discovery_voter(platform_->visibility(id), voter)) break;
          platform_->vote(id, voter, now);
        }
      }
    }

    // --- fan channel for every live story -----------------------------
    for (platform::StoryId id = 0; id < platform_->story_count(); ++id) {
      if (states_[id].closed) continue;
      const platform::Story& s = platform_->story(id);
      if (s.phase == platform::StoryPhase::kExpired) {
        states_[id].closed = true;
        continue;
      }
      if (s.phase == platform::StoryPhase::kFrontPage &&
          now - *s.promoted_at > 6.0 * kNoveltyHalfLife) {
        states_[id].closed = true;  // saturated; stop spending time on it
        continue;
      }
      fan_step(id, now, dt_days);
    }
  }

  for (platform::StoryId id = 0; id < platform_->story_count(); ++id) {
    result.total_votes += platform_->story(id).vote_count();
    if (platform_->story(id).promoted()) ++result.promotions;
  }
  static obs::Counter& votes =
      obs::Registry::global().counter("dynamics.site_votes");
  static obs::Counter& submissions =
      obs::Registry::global().counter("dynamics.site_submissions");
  static obs::Counter& promotions =
      obs::Registry::global().counter("dynamics.site_promotions");
  votes.inc(result.total_votes);
  submissions.inc(result.submissions);
  promotions.inc(result.promotions);
  return result;
}

}  // namespace digg::dynamics
