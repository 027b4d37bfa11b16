#pragma once
// User population model. §3 documents extreme activity skew: of 15,000+
// front-page stories by the top 1000 users, the top 3% of those users made
// 35% of the submissions; voting is even more skewed. We model per-user
// activity rates with a Zipf profile over the user ranking and derive the
// reputation / top-user list exactly as Digg did (count of promoted
// submissions).

#include <cstdint>
#include <vector>

#include "src/digg/types.h"
#include "src/stats/rng.h"

namespace digg::platform {

/// Behavioural parameters of one user. Rates are per-day Poisson
/// intensities; probabilities are per-discovery digg propensities.
struct UserProfile {
  /// Expected number of voting sessions per day (front page + friends +
  /// upcoming combined). Heavy-tailed across the population.
  double activity_rate = 1.0;

  /// How the user splits attention across discovery channels. Fractions of
  /// a session spent on each; need not sum to 1 (remainder = idle).
  double front_page_weight = 0.6;
  double friends_interface_weight = 0.3;
  double upcoming_weight = 0.1;

  /// Expected number of story submissions per day.
  double submission_rate = 0.0;
};

struct PopulationParams {
  std::size_t user_count = 20000;
  /// Zipf exponent of the activity-rate profile; ~1 reproduces the quoted
  /// "top 3% make 35%" concentration.
  double activity_zipf_exponent = 1.0;
  /// Mean activity of the median user (sessions/day).
  double base_activity_rate = 0.5;
};

/// Generates the population sorted so that user 0 is the most active (user
/// ids align with preferential-attachment arrival order, making early/
/// well-connected nodes also the most active — the "top users" of §3).
[[nodiscard]] std::vector<UserProfile> generate_population(
    const PopulationParams& params, stats::Rng& rng);

/// Digg's reputation: number of a user's submissions promoted to the front
/// page. Returns per-user counts.
[[nodiscard]] std::vector<std::uint32_t> promoted_submission_counts(
    const std::vector<Story>& stories, std::size_t user_count);

/// User ids ranked by reputation, descending. Ties are broken by the
/// optional `tiebreak` score (e.g. fan count), then by id — Digg's Top
/// Users list ranked lifetime promoted submissions, so a long-lived
/// snapshot never ties the way a short observation window does. The paper's
/// "Top Users list"; rank <= 100 defines the held-out test set of §5.2.
[[nodiscard]] std::vector<UserId> top_user_ranking(
    const std::vector<std::uint32_t>& reputation,
    const std::vector<std::uint32_t>& tiebreak = {});

/// Share of total submissions attributable to the top `fraction` of users by
/// submission count (the "top 3% -> 35%" statistic).
[[nodiscard]] double top_share(const std::vector<std::uint32_t>& per_user_counts,
                               double fraction);

}  // namespace digg::platform
