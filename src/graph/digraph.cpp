#include "src/graph/digraph.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace digg::graph {

namespace {

// Post-condition of build(): every adjacency row is strictly increasing
// (sorted + deduplicated). HybridSet (src/digg/hybrid_set.h) consumes
// fans()/friends() spans through union_span, whose galloping set difference
// and bitmap word-run merge assume strictly-increasing input and would
// silently drop or misplace elements otherwise — union_span itself only
// asserts in debug builds. So the invariant is enforced unconditionally at
// the single place rows are materialised (one predictable O(E) scan over
// columns build() just wrote, ~free next to the counting sort) instead of
// defended per consumer.
// from_views reaches the same guarantee through check_csr below.
void check_rows_sorted(std::span<const std::size_t> offsets,
                       std::span<const NodeId> ids, const char* what) {
  for (std::size_t u = 0; u + 1 < offsets.size(); ++u) {
    for (std::size_t i = offsets[u] + 1; i < offsets[u + 1]; ++i) {
      if (ids[i - 1] >= ids[i])
        throw std::logic_error(
            std::string("Digraph::build: ") + what + " row " +
            std::to_string(u) +
            " not strictly increasing (would corrupt union_span)");
    }
  }
}

}  // namespace

void Digraph::bind_owned() {
  out_offsets_ = own_out_offsets_;
  out_targets_ = own_out_targets_;
  in_offsets_ = own_in_offsets_;
  in_sources_ = own_in_sources_;
  borrowed_ = false;
}

Digraph& Digraph::operator=(const Digraph& other) {
  if (this == &other) return *this;
  if (other.borrowed_) {
    // Borrowed graphs share the caller-owned columns; copying the spans is
    // the whole copy.
    own_out_offsets_.clear();
    own_out_targets_.clear();
    own_in_offsets_.clear();
    own_in_sources_.clear();
    out_offsets_ = other.out_offsets_;
    out_targets_ = other.out_targets_;
    in_offsets_ = other.in_offsets_;
    in_sources_ = other.in_sources_;
    borrowed_ = true;
  } else {
    own_out_offsets_ = other.own_out_offsets_;
    own_out_targets_ = other.own_out_targets_;
    own_in_offsets_ = other.own_in_offsets_;
    own_in_sources_ = other.own_in_sources_;
    bind_owned();
  }
  return *this;
}

std::span<const NodeId> Digraph::friends(NodeId u) const {
  if (u >= node_count()) throw std::out_of_range("Digraph::friends: bad node");
  return {out_targets_.data() + out_offsets_[u],
          out_offsets_[u + 1] - out_offsets_[u]};
}

std::span<const NodeId> Digraph::fans(NodeId u) const {
  if (u >= node_count()) throw std::out_of_range("Digraph::fans: bad node");
  return {in_sources_.data() + in_offsets_[u],
          in_offsets_[u + 1] - in_offsets_[u]};
}

std::vector<std::uint32_t> Digraph::in_degrees() const {
  std::vector<std::uint32_t> out(node_count());
  for (std::size_t u = 0; u < out.size(); ++u)
    out[u] = static_cast<std::uint32_t>(in_offsets_[u + 1] - in_offsets_[u]);
  return out;
}

namespace {

void check_csr(std::span<const std::size_t> offsets,
               std::span<const NodeId> ids, std::size_t n, const char* what) {
  if (offsets.size() != n + 1 || offsets.front() != 0 ||
      offsets.back() != ids.size())
    throw std::invalid_argument(std::string("Digraph::from_views: bad ") +
                                what + " offsets");
  for (std::size_t u = 0; u < n; ++u) {
    if (offsets[u] > offsets[u + 1])
      throw std::invalid_argument(std::string("Digraph::from_views: ") + what +
                                  " offsets not monotone");
    for (std::size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      if (ids[i] >= n)
        throw std::invalid_argument(std::string("Digraph::from_views: ") +
                                    what + " id out of range");
      if (i > offsets[u] && ids[i] <= ids[i - 1])
        throw std::invalid_argument(std::string("Digraph::from_views: ") +
                                    what + " row not strictly sorted");
    }
  }
}

void check_parts(std::span<const std::size_t> out_offsets,
                 std::span<const NodeId> out_targets,
                 std::span<const std::size_t> in_offsets,
                 std::span<const NodeId> in_sources) {
  if (out_offsets.empty() || in_offsets.size() != out_offsets.size())
    throw std::invalid_argument("Digraph::from_views: offset size mismatch");
  if (out_targets.size() != in_sources.size())
    throw std::invalid_argument("Digraph::from_views: edge count mismatch");
  const std::size_t n = out_offsets.size() - 1;
  check_csr(out_offsets, out_targets, n, "out");
  check_csr(in_offsets, in_sources, n, "in");
  // fans() and friends() must describe one relation (in-network probes
  // read friends rows, influence recounts fan rows). A cursor fill in
  // ascending source order must meet each sorted in-row in order without
  // overrunning it; both sides hold the same edge count, so no row is left
  // short either. One O(E) pass.
  std::vector<std::size_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t i = out_offsets[u]; i < out_offsets[u + 1]; ++i) {
      const NodeId v = out_targets[i];
      if (cursor[v] == in_offsets[v + 1] || in_sources[cursor[v]++] != u)
        throw std::invalid_argument(
            "Digraph::from_views: in-CSR is not the transpose of out-CSR");
    }
}

}  // namespace

Digraph Digraph::from_views(std::span<const std::size_t> out_offsets,
                            std::span<const NodeId> out_targets,
                            std::span<const std::size_t> in_offsets,
                            std::span<const NodeId> in_sources) {
  // Validating a mapped column costs one sequential scan (milliseconds
  // even at millions of users).
  check_parts(out_offsets, out_targets, in_offsets, in_sources);
  Digraph g;
  g.out_offsets_ = out_offsets;
  g.out_targets_ = out_targets;
  g.in_offsets_ = in_offsets;
  g.in_sources_ = in_sources;
  g.borrowed_ = true;
  return g;
}

DigraphBuilder::DigraphBuilder(std::size_t node_count)
    : node_count_(node_count) {}

void DigraphBuilder::ensure_nodes(std::size_t count) {
  node_count_ = std::max(node_count_, count);
}

void DigraphBuilder::add_follow(NodeId u, NodeId v) {
  if (u == v) throw std::invalid_argument("DigraphBuilder: self-loop");
  ensure_nodes(static_cast<std::size_t>(std::max(u, v)) + 1);
  edges_.emplace_back(u, v);
}

Digraph DigraphBuilder::build() const {
  const std::size_t n = node_count_;
  Digraph g;
  std::vector<std::size_t>& out_offsets = g.own_out_offsets_;
  std::vector<NodeId>& out_targets = g.own_out_targets_;

  // Counting sort by source: each recorded edge's target lands in its
  // source's row, in insertion order.
  out_offsets.assign(n + 1, 0);
  for (const auto& [u, v] : edges_) ++out_offsets[u + 1];
  for (std::size_t i = 1; i <= n; ++i) out_offsets[i] += out_offsets[i - 1];
  out_targets.resize(edges_.size());
  {
    std::vector<std::size_t> fill(out_offsets.begin(), out_offsets.end() - 1);
    for (const auto& [u, v] : edges_) out_targets[fill[u]++] = v;
  }
  // Sort and deduplicate each row, compacting the rows leftwards in place
  // (a row never moves right, so it is read before anything overwrites it).
  std::size_t kept = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const auto first = out_targets.begin() +
                       static_cast<std::ptrdiff_t>(out_offsets[u]);
    const auto last = out_targets.begin() +
                      static_cast<std::ptrdiff_t>(out_offsets[u + 1]);
    std::sort(first, last);
    const auto row_end = std::unique(first, last);
    out_offsets[u] = kept;
    for (auto it = first; it != row_end; ++it) out_targets[kept++] = *it;
  }
  out_offsets[n] = kept;
  if (kept != out_targets.size()) {
    out_targets.resize(kept);
    out_targets.shrink_to_fit();
  }

  // In-rows: the transpose, filled in source order.
  std::vector<std::size_t>& in_offsets = g.own_in_offsets_;
  in_offsets.assign(n + 1, 0);
  for (const NodeId v : out_targets) ++in_offsets[v + 1];
  for (std::size_t i = 1; i <= n; ++i) in_offsets[i] += in_offsets[i - 1];
  g.own_in_sources_.resize(kept);
  std::vector<std::size_t> in_fill(in_offsets.begin(), in_offsets.end() - 1);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t i = out_offsets[u]; i < out_offsets[u + 1]; ++i)
      g.own_in_sources_[in_fill[out_targets[i]]++] = static_cast<NodeId>(u);
  g.bind_owned();
  // Each out-row was sorted on its own; in-rows are filled in source order,
  // hence sorted by source. Both directions are verified unconditionally —
  // arbitrary insertion order must normalize here, in release builds too
  // (see check_rows_sorted).
  check_rows_sorted(g.out_offsets_, g.out_targets_, "out");
  check_rows_sorted(g.in_offsets_, g.in_sources_, "in");
  return g;
}

}  // namespace digg::graph
