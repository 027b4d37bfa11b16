#include "src/graph/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace digg::graph {

/// Probability that a new preferential-attachment edge reciprocates an
/// existing fan instead of preferentially attaching — produces the
/// mutual-fan clusters visible in the top-user community.
constexpr double kReciprocity = 0.15;
/// Second growth phase: heavy users keep adding friends over the site's
/// life, so early arrivals end with many *friends* as well as many fans
/// (the paper's final figure: top users are high on both axes). Node u
/// gains Poisson(kExtraFriendRate * (n/2/(u+1))^0.7) extra follow edges,
/// capped at kExtraFriendCap, with preferentially chosen targets.
constexpr double kExtraFriendRate = 0.5;
constexpr std::size_t kExtraFriendCap = 150;

Digraph erdos_renyi(std::size_t n, double p, stats::Rng& rng) {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("erdos_renyi: bad p");
  DigraphBuilder builder(n);
  if (p > 0.0 && n > 1) {
    // Skip-sampling over the n*(n-1) ordered non-loop pairs.
    const auto total = static_cast<std::uint64_t>(n) * (n - 1);
    const double log_q = std::log(1.0 - p);
    std::uint64_t idx = 0;
    while (true) {
      // Geometric skip: number of non-edges before the next edge.
      const double u = std::max(rng.uniform(), 1e-300);
      const auto skip = (p >= 1.0)
                            ? std::uint64_t{0}
                            : static_cast<std::uint64_t>(std::log(u) / log_q);
      if (skip > total - idx - 1 && idx + skip >= total) break;
      idx += skip;
      if (idx >= total) break;
      const auto src = static_cast<NodeId>(idx / (n - 1));
      auto dst = static_cast<NodeId>(idx % (n - 1));
      if (dst >= src) ++dst;  // skip the diagonal
      builder.add_follow(src, dst);
      ++idx;
      if (idx >= total) break;
    }
  }
  return builder.build();
}

Digraph preferential_attachment(const PreferentialAttachmentParams& params,
                                stats::Rng& rng) {
  const std::size_t n = params.node_count;
  if (n < 2)
    throw std::invalid_argument("preferential_attachment: node_count < 2");
  if (params.mean_out_degree <= 0.0)
    throw std::invalid_argument("preferential_attachment: mean_out_degree <= 0");
  if (params.smoothing <= 0.0)
    throw std::invalid_argument("preferential_attachment: smoothing <= 0");

  DigraphBuilder builder(n);
  std::vector<std::size_t> fan_count(n, 0);
  // repeated[i] holds node ids proportional to fan count for O(1) weighted
  // draws (the classic Barabási–Albert urn trick).
  std::vector<NodeId> urn;
  urn.reserve(static_cast<std::size_t>(
      static_cast<double>(n) * params.mean_out_degree * 1.2));

  std::vector<NodeId> chosen;  // u's targets so far, reused across nodes
  for (NodeId u = 1; u < n; ++u) {
    const auto edges =
        std::max<std::int64_t>(1, rng.poisson(params.mean_out_degree));
    chosen.clear();
    for (std::int64_t e = 0; e < edges && chosen.size() < u; ++e) {
      NodeId target;
      // Reciprocity mixes in uniform choices among earlier arrivals, which
      // creates mutual-follow pairs once the other side's preferential edges
      // land; exact fan-list tracking is not needed for calibration.
      const bool uniform_pick =
          rng.bernoulli(kReciprocity) && fan_count[u] > 0;
      if (uniform_pick) {
        target = static_cast<NodeId>(rng.uniform_int(0, u - 1));
      } else {
        // Preferential attachment with additive smoothing: with probability
        // s_total/(s_total + urn) pick uniformly, else pick from the urn.
        const double urn_mass = static_cast<double>(urn.size());
        const double smooth_mass =
            params.smoothing * static_cast<double>(u);  // existing nodes
        if (urn.empty() ||
            rng.uniform() < smooth_mass / (smooth_mass + urn_mass)) {
          target = static_cast<NodeId>(rng.uniform_int(0, u - 1));
        } else {
          target = urn[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(urn.size()) - 1))];
        }
      }
      if (target == u) continue;
      if (std::find(chosen.begin(), chosen.end(), target) != chosen.end())
        continue;
      chosen.push_back(target);
      builder.add_follow(u, target);
      ++fan_count[target];
      urn.push_back(target);
    }
  }

  // Second growth phase: long-lived heavy users accumulate friends.
  const double half_n = static_cast<double>(n) / 2.0;
  for (NodeId u = 0; u < n; ++u) {
    const double mean = std::min<double>(
        static_cast<double>(kExtraFriendCap),
        kExtraFriendRate * std::pow(half_n / static_cast<double>(u + 1), 0.7));
    if (mean < 1e-3) continue;
    const std::int64_t extra = std::min<std::int64_t>(
        rng.poisson(mean), static_cast<std::int64_t>(kExtraFriendCap));
    for (std::int64_t e = 0; e < extra; ++e) {
      // Mostly uniform targets: heavy users browse widely, so their late
      // friendships do not all concentrate on the existing hubs.
      NodeId target;
      if (urn.empty() || rng.bernoulli(0.65)) {
        target = static_cast<NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      } else {
        target = urn[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(urn.size()) - 1))];
      }
      if (target == u) continue;
      builder.add_follow(u, target);  // duplicates removed at build()
      urn.push_back(target);
    }
  }
  return builder.build();
}

Digraph planted_partition(const PlantedPartitionParams& params,
                          stats::Rng& rng) {
  const std::size_t n = params.node_count;
  if (params.communities == 0 || params.communities > n)
    throw std::invalid_argument("planted_partition: bad community count");
  const std::vector<std::size_t> community = planted_communities(params);
  DigraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v) continue;
      const double p =
          community[u] == community[v] ? params.p_in : params.p_out;
      if (rng.bernoulli(p)) builder.add_follow(u, v);
    }
  }
  return builder.build();
}

std::vector<std::size_t> planted_communities(
    const PlantedPartitionParams& params) {
  std::vector<std::size_t> community(params.node_count);
  const std::size_t block =
      (params.node_count + params.communities - 1) / params.communities;
  for (std::size_t u = 0; u < params.node_count; ++u) community[u] = u / block;
  return community;
}

}  // namespace digg::graph
