#include "src/digg/friends_interface.h"

#include <stdexcept>

namespace digg::platform {

void VisibilitySet::add_voter(UserId voter) {
  if (has_voted(voter))
    throw std::invalid_argument("VisibilitySet::add_voter: duplicate voter");
  const std::size_t word = voter / kWordBits;
  const Word bit = Word{1} << (voter % kWordBits);
  if (word >= voters_.size()) voters_.resize(word + 1, 0);
  voters_[word] |= bit;
  if (word < watchers_.size() && (watchers_[word] & bit) != 0) {
    watchers_[word] &= ~bit;
    --watcher_count_;
  }
  if (network_ == nullptr || voter >= network_->node_count()) return;
  // The exposure log records first-time watchers in fan-span order, which
  // the vote simulators' RNG draws follow. Prior voters never re-enter.
  for (const UserId fan : network_->fans(voter)) {
    const std::size_t w = fan / kWordBits;
    const Word b = Word{1} << (fan % kWordBits);
    if (((voters_[w] | watchers_[w]) & b) != 0) continue;
    watchers_[w] |= b;
    ++watcher_count_;
    exposure_log_.push_back(fan);
  }
}

}  // namespace digg::platform
