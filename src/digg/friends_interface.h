#pragma once
// The Friends interface (§3): a user's fans can see the stories the user
// submitted or dugg. A story's *influence* (§4.1) is the number of users who
// can see it through this interface — the union of fans of the submitter and
// of everyone who has voted so far.
//
// VisibilitySet supports incremental updates (add one voter at a time) so
// the vote simulators stay O(sum of fan degrees) per story, and their fan
// channel can consume newly exposed watchers. Its watcher and voter sets are
// two word-packed bitmaps over the network's users (users/4 bytes per set),
// so every membership probe is one word test. The analysis quantities need
// no set: core/prefix_visibility.h computes them from the vote prefix, and
// the tests use VisibilitySet as its oracle.

#include <cstdint>
#include <vector>

#include "src/digg/types.h"

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
        watchers_(word_count(network.node_count())),
        voters_(word_count(network.node_count())) {}

  /// Records a vote: `voter` stops being a watcher (they have acted) and all
  /// of the voter's fans who have not voted become watchers. Throws
  /// std::invalid_argument, changing nothing, if `voter` already voted.
  /// Voters outside the network are recorded but expose no one.
  void add_voter(UserId voter);

  /// Users who can currently see the story but have not voted.
  [[nodiscard]] std::size_t influence() const noexcept {
    return watcher_count_;
  }
  [[nodiscard]] bool can_see(UserId user) const noexcept {
    return test(watchers_, user);
  }
  [[nodiscard]] bool has_voted(UserId user) const noexcept {
    return test(voters_, user);
  }

  /// Append-only log of users in the order they first became watchers.
  /// Entries may be stale (the user has since voted); each user appears at
  /// most once. The vote simulator consumes this incrementally to drive its
  /// one-shot exposure model.
  [[nodiscard]] const std::vector<UserId>& exposure_log() const noexcept {
    return exposure_log_;
  }

 private:
  using Word = std::uint64_t;
  static constexpr unsigned kWordBits = 64;

  static std::size_t word_count(std::size_t bits) noexcept {
    return (bits + kWordBits - 1) / kWordBits;
  }
  static bool test(const std::vector<Word>& bits, UserId id) noexcept {
    const std::size_t word = id / kWordBits;
    return word < bits.size() && ((bits[word] >> (id % kWordBits)) & 1u) != 0;
  }

  const graph::Digraph* network_ = nullptr;
  std::vector<Word> watchers_;  // node_count bits: fans are network ids
  std::vector<Word> voters_;    // grows for voters outside the network
  std::size_t watcher_count_ = 0;
  std::vector<UserId> exposure_log_;
};

}  // namespace digg::platform
