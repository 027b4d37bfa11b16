#include "src/digg/user.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace digg::platform {

/// Fraction of users who submit at all; submission rates are further
/// Zipf-skewed among them.
constexpr double kSubmitterFraction = 0.15;
constexpr double kBaseSubmissionRate = 0.05;
/// How strongly heavy users favour the Friends interface (top users are the
/// heaviest Friends-interface consumers in the paper's account).
constexpr double kFriendsWeightBoost = 0.35;

std::vector<UserProfile> generate_population(const PopulationParams& params,
                                             stats::Rng& rng) {
  if (params.user_count == 0)
    throw std::invalid_argument("generate_population: user_count == 0");
  std::vector<UserProfile> users(params.user_count);
  const double n = static_cast<double>(params.user_count);
  for (std::size_t rank = 0; rank < params.user_count; ++rank) {
    UserProfile& u = users[rank];
    // Zipf activity: rate ∝ (rank+1)^-s, normalized so the median user has
    // base_activity_rate.
    const double median_rank = n / 2.0;
    const double zipf = std::pow((static_cast<double>(rank) + 1.0) / median_rank,
                                 -params.activity_zipf_exponent);
    u.activity_rate = params.base_activity_rate * zipf;
    // Small multiplicative noise so equal-rank behaviour is not degenerate.
    u.activity_rate *= std::exp(rng.normal(0.0, 0.25));

    // Heavy users lean more on the Friends interface.
    const double heaviness =
        std::min(1.0, u.activity_rate / (params.base_activity_rate * 20.0));
    u.friends_interface_weight = 0.25 + kFriendsWeightBoost * heaviness;
    u.front_page_weight = 0.65 - 0.3 * heaviness;
    u.upcoming_weight = 1.0 - u.friends_interface_weight - u.front_page_weight;

    // Submissions: only a fraction of users submit; heavier users are far
    // more likely to, and submit more.
    const double submit_p = kSubmitterFraction * (0.5 + 1.5 * heaviness);
    if (rng.bernoulli(std::min(1.0, submit_p))) {
      u.submission_rate =
          kBaseSubmissionRate * zipf * std::exp(rng.normal(0.0, 0.5));
    }
  }
  return users;
}

std::vector<std::uint32_t> promoted_submission_counts(
    const std::vector<Story>& stories, std::size_t user_count) {
  std::vector<std::uint32_t> counts(user_count, 0);
  for (const Story& s : stories) {
    if (s.promoted() && s.submitter < user_count) ++counts[s.submitter];
  }
  return counts;
}

std::vector<UserId> top_user_ranking(
    const std::vector<std::uint32_t>& reputation,
    const std::vector<std::uint32_t>& tiebreak) {
  if (!tiebreak.empty() && tiebreak.size() != reputation.size())
    throw std::invalid_argument("top_user_ranking: tiebreak size mismatch");
  std::vector<UserId> order(reputation.size());
  std::iota(order.begin(), order.end(), UserId{0});
  std::stable_sort(order.begin(), order.end(), [&](UserId a, UserId b) {
    if (reputation[a] != reputation[b])
      return reputation[a] > reputation[b];
    if (!tiebreak.empty() && tiebreak[a] != tiebreak[b])
      return tiebreak[a] > tiebreak[b];
    return a < b;
  });
  return order;
}

double top_share(const std::vector<std::uint32_t>& per_user_counts,
                 double fraction) {
  if (fraction <= 0.0 || fraction > 1.0)
    throw std::invalid_argument("top_share: fraction outside (0,1]");
  std::vector<std::uint32_t> sorted = per_user_counts;
  std::sort(sorted.rbegin(), sorted.rend());
  const std::uint64_t total =
      std::accumulate(sorted.begin(), sorted.end(), std::uint64_t{0});
  if (total == 0) return 0.0;
  const auto head = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(sorted.size())));
  const std::uint64_t head_sum =
      std::accumulate(sorted.begin(), sorted.begin() + head, std::uint64_t{0});
  return static_cast<double>(head_sum) / static_cast<double>(total);
}

}  // namespace digg::platform
