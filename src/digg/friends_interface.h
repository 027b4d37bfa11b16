#pragma once
// The Friends interface (§3): a user's fans can see the stories the user
// submitted or dugg. A story's *influence* (§4.1) is the number of users who
// can see it through this interface — the union of fans of the submitter and
// of everyone who has voted so far.
//
// VisibilitySet supports incremental updates (add one voter at a time) so
// the vote-dynamics simulation stays O(sum of fan degrees) per story. The
// watcher and voter sets are hybrid small-sets (hybrid_set.h): a sorted
// uint32 array while small — the common case, since analysis sets live
// inside the 21-vote checkpoint horizon — promoting to a word-packed bitmap
// past the size threshold. Unioning a voter's fans is a branch-light merge
// of the sorted CSR fan span, membership a galloping binary search, and a
// set costs bytes proportional to its cardinality (capped by the bitmap)
// instead of O(num_users) dense stamps, which is what lets the streaming
// engine keep one resident set per below-horizon story.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/digg/hybrid_set.h"
#include "src/digg/types.h"
#include "src/stats/rng.h"

namespace digg::platform {

/// Incrementally maintained set of users who can see a story through the
/// Friends interface. Voters themselves are excluded (they already saw it).
/// Holds a reference to `network`: the graph must outlive the set.
class VisibilitySet {
 public:
  /// Unbound set; call rebind() before use. Exists so scratch instances can
  /// live in thread_local storage and outlast any one graph.
  VisibilitySet() = default;
  explicit VisibilitySet(const graph::Digraph& network) { rebind(network); }

  /// Points the set at `network` and empties it. Buffers are kept and
  /// grown, never shrunk, so a scratch instance reused across stories
  /// allocates only on the largest graph it has seen.
  void rebind(const graph::Digraph& network) {
    network_ = &network;
    watchers_.reset(network.node_count());
    voters_.reset(network.node_count());
    watcher_pool_.clear();
  }

  /// Empties the set, keeping the bound network and key universe.
  void reset() noexcept {
    watchers_.reset(watchers_.universe());
    voters_.reset(voters_.universe());
    watcher_pool_.clear();
  }

  /// Records a vote: `voter` stops being a watcher (they have acted) and all
  /// of the voter's fans become watchers.
  void add_voter(UserId voter);

  /// Users who can currently see the story but have not voted.
  [[nodiscard]] std::size_t influence() const noexcept {
    return watchers_.size();
  }
  [[nodiscard]] bool can_see(UserId user) const noexcept {
    return watchers_.contains(user);
  }
  [[nodiscard]] bool has_voted(UserId user) const noexcept {
    return voters_.contains(user);
  }
  [[nodiscard]] std::size_t voter_count() const noexcept {
    return voters_.size();
  }

  /// Uniform-ish random current watcher in O(1) expected time (rejection
  /// sampling over an insertion pool with lazy deletion). Returns nullopt if
  /// there are no watchers. Used by the vote simulator's fan channel.
  [[nodiscard]] std::optional<UserId> sample_watcher(stats::Rng& rng) const;

  /// Append-only log of users in the order they first became watchers.
  /// Entries may be stale (the user has since voted); each user appears at
  /// most once. The vote simulator consumes this incrementally to drive its
  /// one-shot exposure model.
  [[nodiscard]] const std::vector<UserId>& exposure_log() const noexcept {
    return watcher_pool_;
  }

  /// Resident heap bytes of the hybrid sets + exposure log.
  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return watchers_.size_bytes() + voters_.size_bytes() +
           watcher_pool_.capacity() * sizeof(UserId);
  }

 private:
  const graph::Digraph* network_ = nullptr;
  HybridSet watchers_;
  HybridSet voters_;
  std::vector<UserId> watcher_pool_;  // insertion log; may contain stale ids
};

/// Influence of a story after its first `votes_counted` votes (including the
/// submitter's digg as the first): number of non-voting users who could see
/// it through the Friends interface. This is the quantity of Fig. 3(a).
/// Uses a thread-local scratch VisibilitySet — O(1) setup per story.
[[nodiscard]] std::size_t story_influence(const StoryView& story,
                                          const graph::Digraph& network,
                                          std::size_t votes_counted);

/// Friends-interface activity summary ("stories my friends submitted /
/// dugg in the preceding 48 hours", §3): ids of stories visible to `user`
/// among `stories` given vote records up to time `now`.
struct FriendsActivity {
  std::vector<StoryId> submitted_by_friends;
  std::vector<StoryId> dugg_by_friends;
};
[[nodiscard]] FriendsActivity friends_activity(
    UserId user, std::span<const Story> stories,
    const graph::Digraph& network, Minutes now,
    Minutes lookback = 48.0 * kMinutesPerHour);

}  // namespace digg::platform
