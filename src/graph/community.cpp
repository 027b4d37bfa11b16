#include "src/graph/community.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace digg::graph {

std::vector<std::size_t> label_propagation(const Digraph& g, stats::Rng& rng,
                                           std::size_t max_rounds) {
  const std::size_t n = g.node_count();
  std::vector<std::size_t> label(n);
  std::iota(label.begin(), label.end(), std::size_t{0});
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});

  // Dense tally: labels are always < n, so neighbor-label counts live in a
  // flat array and only the touched slots are zeroed between nodes — no hash
  // probes in the O(rounds * edges) inner loop.
  std::vector<std::size_t> counts(n, 0);
  std::vector<std::size_t> touched;

  for (std::size_t round = 0; round < max_rounds; ++round) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    bool changed = false;
    for (NodeId u : order) {
      touched.clear();
      const auto tally = [&](NodeId v) {
        if (counts[label[v]]++ == 0) touched.push_back(label[v]);
      };
      for (NodeId v : g.friends(u)) tally(v);
      for (NodeId v : g.fans(u)) tally(v);
      if (touched.empty()) continue;
      // Pick the most frequent neighbor label; break ties toward the current
      // label, then toward the smallest label for determinism. (The rule is
      // iteration-order independent: the current label is never displaced on
      // an equal count, and among strictly better counts the smallest label
      // with the maximal count wins.)
      std::size_t best_label = label[u];
      std::size_t best_count = counts[best_label];
      for (std::size_t l : touched) {
        const std::size_t c = counts[l];
        if (c > best_count || (c == best_count && l < best_label &&
                               best_label != label[u])) {
          best_label = l;
          best_count = c;
        }
      }
      for (std::size_t l : touched) counts[l] = 0;
      if (best_label != label[u]) {
        label[u] = best_label;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Renumber densely, in order of first appearance.
  constexpr std::size_t kUnassigned = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dense(n, kUnassigned);
  std::size_t next = 0;
  for (std::size_t& l : label) {
    if (dense[l] == kUnassigned) dense[l] = next++;
    l = dense[l];
  }
  return label;
}

double modularity(const Digraph& g,
                  const std::vector<std::size_t>& communities) {
  if (communities.size() != g.node_count())
    throw std::invalid_argument("modularity: partition size mismatch");
  const double m = static_cast<double>(g.edge_count());
  if (m == 0.0) return 0.0;
  // Undirected projection where each directed edge contributes one endpoint
  // pair; degree of u = friends + fans (mutual edges naturally count twice).
  const std::size_t label_count =
      communities.empty()
          ? 0
          : *std::max_element(communities.begin(), communities.end()) + 1;
  std::vector<double> internal(label_count, 0.0);
  std::vector<double> degree_sum(label_count, 0.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    degree_sum[communities[u]] +=
        static_cast<double>(g.friend_count(u) + g.fan_count(u));
    for (NodeId v : g.friends(u)) {
      if (communities[u] == communities[v]) internal[communities[u]] += 1.0;
    }
  }
  double q = 0.0;
  for (std::size_t c = 0; c < label_count; ++c) {
    q += internal[c] / m - (degree_sum[c] / (2.0 * m)) *
                               (degree_sum[c] / (2.0 * m));
  }
  return q;
}

double rand_index(const std::vector<std::size_t>& a,
                  const std::vector<std::size_t>& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("rand_index: size mismatch");
  const std::size_t n = a.size();
  if (n < 2) return 1.0;
  std::size_t agree = 0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool same_a = a[i] == a[j];
      const bool same_b = b[i] == b[j];
      if (same_a == same_b) ++agree;
      ++pairs;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(pairs);
}

}  // namespace digg::graph
