#pragma once
// Community detection and modularity (Newman 2006), cited by the paper's
// future work (§6) on the role of community structure in voting dynamics.
// Label propagation is used because the networks here reach ~10^5 nodes.

#include <cstddef>
#include <vector>

#include "src/graph/digraph.h"
#include "src/stats/rng.h"

namespace digg::graph {

/// Synchronous-ish label propagation over the undirected projection.
/// Returns a community label per node (densely renumbered from 0).
/// Deterministic given the Rng: node visit order is shuffled per round.
[[nodiscard]] std::vector<std::size_t> label_propagation(
    const Digraph& g, stats::Rng& rng, std::size_t max_rounds = 100);

/// Newman modularity Q of a partition over the undirected projection of g
/// (each directed edge counts once as an undirected edge; mutual pairs count
/// twice, consistently between the degree and edge terms).
[[nodiscard]] double modularity(const Digraph& g,
                                const std::vector<std::size_t>& communities);

/// Fraction of node pairs on which two partitions agree (same/different
/// community) — Rand index, for comparing detected vs planted partitions.
[[nodiscard]] double rand_index(const std::vector<std::size_t>& a,
                                const std::vector<std::size_t>& b);

}  // namespace digg::graph
