#pragma once
// Random graph generators. The synthetic Digg fan network is produced by the
// directed preferential-attachment generator (power-law fan counts with a
// small head of very well connected "top users", matching §3.2 and the
// friends-vs-fans scatter). ER and planted-partition graphs support the §6
// future-work experiments on epidemic thresholds and modular networks.

#include <cstdint>
#include <vector>

#include "src/graph/digraph.h"
#include "src/stats/rng.h"

namespace digg::graph {

/// G(n, p) Erdős–Rényi digraph: each ordered pair (u, v), u != v, is an edge
/// independently with probability p. O(expected edges) via geometric skips.
[[nodiscard]] Digraph erdos_renyi(std::size_t n, double p, stats::Rng& rng);

/// Parameters for the directed preferential-attachment fan network.
struct PreferentialAttachmentParams {
  std::size_t node_count = 1000;
  /// Mean number of follow edges created by each arriving node (its initial
  /// friend count); actual counts are Poisson distributed with this mean.
  double mean_out_degree = 5.0;
  /// Additive smoothing: target selected with probability ∝ fans + smoothing.
  /// Smaller values give heavier tails (more dominant top users).
  double smoothing = 1.0;
};

/// Grows a digraph by preferential attachment on *fan* counts: arriving user
/// u follows existing users chosen with probability proportional to their
/// current fan count (plus smoothing). Fan counts come out power-law
/// distributed; early nodes become "top users" with orders of magnitude more
/// fans, as in the paper's network snapshot. A reciprocity mix and a second
/// growth phase of extra friends for early arrivals are calibration
/// constants in generators.cpp.
[[nodiscard]] Digraph preferential_attachment(
    const PreferentialAttachmentParams& params, stats::Rng& rng);

/// Planted-partition (stochastic block) digraph: `communities` equal-sized
/// groups; within-group edge probability p_in, across-group p_out. Supports
/// the §6 experiment on cascades in modular networks.
struct PlantedPartitionParams {
  std::size_t node_count = 1000;
  std::size_t communities = 4;
  double p_in = 0.02;
  double p_out = 0.001;
};
[[nodiscard]] Digraph planted_partition(const PlantedPartitionParams& params,
                                        stats::Rng& rng);

/// Ground-truth community of each node for a planted-partition graph built
/// with the same params (node i belongs to community i % communities ... see
/// implementation: contiguous blocks).
[[nodiscard]] std::vector<std::size_t> planted_communities(
    const PlantedPartitionParams& params);

}  // namespace digg::graph
