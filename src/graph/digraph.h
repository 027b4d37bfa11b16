#pragma once
// Directed social graph with Digg's fan/friend semantics.
//
// On Digg the friendship relation is asymmetric: when user A lists user B as
// a friend, A watches B's activity. We store the edge A -> B ("A follows B").
// Then:
//   - friends of A  = out-neighbors of A (users A watches),
//   - fans of B     = in-neighbors of B  (users watching B).
// A story dugg by B becomes visible, via the Friends interface, to all fans
// of B — so influence and cascade computations iterate *in*-neighbors.
//
// The graph is built incrementally with DigraphBuilder and then frozen into
// an immutable CSR (compressed sparse row) Digraph for cache-friendly
// iteration; analysis workloads are read-only and fan lists are scanned
// millions of times.
//
// Storage is either *owned* (vectors, via build()) or
// *borrowed* (spans over caller-owned memory, via from_views()) — the
// borrowed mode is how memory-mapped snapshots bind CSR columns zero-copy.
// All read paths go through the span views, so the two modes are
// indistinguishable to consumers; whoever creates a borrowed graph must
// keep the underlying memory alive for the graph's lifetime.

#include <cstdint>
#include <span>
#include <vector>

namespace digg::graph {

using NodeId = std::uint32_t;

/// Immutable CSR digraph. Create via DigraphBuilder::build().
class Digraph {
 public:
  Digraph() = default;
  Digraph(Digraph&&) noexcept = default;  // moved vectors keep their buffers
  Digraph& operator=(Digraph&&) noexcept = default;
  Digraph(const Digraph& other) { *this = other; }
  Digraph& operator=(const Digraph& other);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return out_offsets_.empty() ? 0 : out_offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return out_targets_.size();
  }

  /// Out-neighbors of u: the users u watches (u's "friends" on Digg).
  [[nodiscard]] std::span<const NodeId> friends(NodeId u) const;
  /// In-neighbors of u: the users watching u (u's "fans" on Digg).
  [[nodiscard]] std::span<const NodeId> fans(NodeId u) const;

  [[nodiscard]] std::size_t friend_count(NodeId u) const {
    return friends(u).size();
  }
  [[nodiscard]] std::size_t fan_count(NodeId u) const { return fans(u).size(); }

  /// In-degree (fan count) of every node. uint32 — a degree never exceeds
  /// the node count (NodeId is 32-bit), and the narrow vector halves the
  /// footprint on million-node graphs.
  [[nodiscard]] std::vector<std::uint32_t> in_degrees() const;

  /// Raw CSR arrays, exposed for binary snapshot serialisation. Offset
  /// spans have size node_count()+1; neighbor rows are sorted.
  [[nodiscard]] std::span<const std::size_t> out_offsets() const noexcept {
    return out_offsets_;
  }
  [[nodiscard]] std::span<const NodeId> out_targets() const noexcept {
    return out_targets_;
  }
  [[nodiscard]] std::span<const std::size_t> in_offsets() const noexcept {
    return in_offsets_;
  }
  [[nodiscard]] std::span<const NodeId> in_sources() const noexcept {
    return in_sources_;
  }

  /// Binds a graph's CSR views directly over caller-owned columns (a
  /// memory-mapped snapshot). Validates structure — offsets monotone from
  /// 0 to the edge count, both directions the same size, ids in range, rows
  /// strictly sorted, and the in-arrays the exact transpose of the
  /// out-arrays — and throws std::invalid_argument on any violation.
  /// O(V + E). The memory must stay alive and unchanged for the graph's
  /// lifetime; copying a borrowed graph copies the *spans*, not the data.
  [[nodiscard]] static Digraph from_views(
      std::span<const std::size_t> out_offsets,
      std::span<const NodeId> out_targets,
      std::span<const std::size_t> in_offsets,
      std::span<const NodeId> in_sources);

 private:
  friend class DigraphBuilder;

  /// Points the view spans at the owned vectors.
  void bind_owned();

  // Read paths use only these spans; they alias either the owned vectors
  // below or caller-owned (mapped) memory when borrowed_.
  std::span<const std::size_t> out_offsets_;  // size n+1
  std::span<const NodeId> out_targets_;       // sorted within each row
  std::span<const std::size_t> in_offsets_;   // size n+1
  std::span<const NodeId> in_sources_;        // sorted within each row
  bool borrowed_ = false;

  std::vector<std::size_t> own_out_offsets_;
  std::vector<NodeId> own_out_targets_;
  std::vector<std::size_t> own_in_offsets_;
  std::vector<NodeId> own_in_sources_;
};

/// Mutable edge-list accumulator. Duplicate edges and self-loops are
/// rejected at build() time (Digg has neither).
class DigraphBuilder {
 public:
  explicit DigraphBuilder(std::size_t node_count = 0);

  /// Grows the node set to at least `count` nodes.
  void ensure_nodes(std::size_t count);
  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edges_.size();
  }

  /// Adds the follow edge u -> v (u lists v as friend; u becomes a fan of v).
  /// Nodes are created implicitly. Self-loops throw immediately.
  void add_follow(NodeId u, NodeId v);

  /// Convenience inverse: records that `fan` watches `target`.
  void add_fan(NodeId target, NodeId fan) { add_follow(fan, target); }

  /// Freezes into a CSR digraph. Duplicate edges are removed (keeping one).
  [[nodiscard]] Digraph build() const;

 private:
  std::size_t node_count_ = 0;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace digg::graph
