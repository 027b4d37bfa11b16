#pragma once
// The Friends interface (§3): a user's fans can see the stories the user
// submitted or dugg. A story's *influence* (§4.1) is the number of users who
// can see it through this interface — the union of fans of the submitter and
// of everyone who has voted so far.
//
// VisibilitySet supports incremental updates (add one voter at a time) so
// the vote simulators stay O(sum of fan degrees) per story, and their fan
// channel can sample current watchers. Its watcher and voter sets are
// hybrid small-sets (hybrid_set.h). The analysis quantities need no set:
// core/prefix_visibility.h computes them from the vote prefix, and the
// tests use VisibilitySet as its oracle.

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
  /// Unbound set (a default StoryState); assign a bound one before use.
  VisibilitySet() = default;
  explicit VisibilitySet(const graph::Digraph& network)
      : network_(&network),
        watchers_(network.node_count()),
        voters_(network.node_count()) {}

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

 private:
  const graph::Digraph* network_ = nullptr;
  HybridSet watchers_;
  HybridSet voters_;
  std::vector<UserId> watcher_pool_;  // insertion log; may contain stale ids
};

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
