#include "src/digg/friends_interface.h"

#include <algorithm>
#include <stdexcept>

namespace digg::platform {

void VisibilitySet::add_voter(UserId voter) {
  if (!voters_.insert(voter))
    throw std::invalid_argument("VisibilitySet::add_voter: duplicate voter");
  watchers_.erase(voter);
  if (network_ != nullptr && voter < network_->node_count()) {
    // One merge of the sorted fan span per vote. Prior voters never re-enter
    // (the accept filter), and the exposure log records first-time watchers
    // in span order — the same order the per-fan insert loop produced, so
    // downstream vote dynamics are bit-identical.
    watchers_.union_span(
        network_->fans(voter),
        [&](UserId fan) { return !voters_.contains(fan); },
        [&](UserId fan) { watcher_pool_.push_back(fan); });
  }
}

std::optional<UserId> VisibilitySet::sample_watcher(stats::Rng& rng) const {
  if (watchers_.empty()) return std::nullopt;
  // The pool holds every id ever inserted; stale entries (since voted) are
  // rejected. Voters <= insertions, so at least half the story's lifetime
  // pool stays valid in the worst realistic case; cap retries regardless.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto idx = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(watcher_pool_.size()) - 1));
    const UserId candidate = watcher_pool_[idx];
    if (watchers_.contains(candidate)) return candidate;
  }
  // Fall back to the first live pool entry (deterministic but rare; every
  // current watcher appears in the pool, so this always finds one).
  for (UserId candidate : watcher_pool_) {
    if (watchers_.contains(candidate)) return candidate;
  }
  return std::nullopt;  // unreachable: watchers_ is non-empty
}

FriendsActivity friends_activity(UserId user, std::span<const Story> stories,
                                 const graph::Digraph& network, Minutes now,
                                 Minutes lookback) {
  FriendsActivity out;
  if (user >= network.node_count()) return out;
  const auto friends = network.friends(user);
  auto is_friend = [&](UserId other) {
    return std::binary_search(friends.begin(), friends.end(), other);
  };
  const Minutes horizon = now - lookback;
  for (const Story& s : stories) {
    if (s.submitted_at <= now && s.submitted_at >= horizon &&
        is_friend(s.submitter)) {
      out.submitted_by_friends.push_back(s.id);
    }
    for (std::size_t i = 1; i < s.voters.size(); ++i) {  // skip submitter digg
      if (s.times[i] > now) break;
      if (s.times[i] >= horizon && is_friend(s.voters[i])) {
        out.dugg_by_friends.push_back(s.id);
        break;  // one appearance per story is enough
      }
    }
  }
  return out;
}

}  // namespace digg::platform
