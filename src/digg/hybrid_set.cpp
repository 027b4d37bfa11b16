#include "src/digg/hybrid_set.h"

#include <algorithm>

namespace digg::platform {

void HybridSet::reset(std::size_t universe) {
  universe_ = universe;
  main_.clear();
  tail_.clear();
  dead_.clear();
  if (bitmap_) {
    // Only the words a previous story dirtied need zeroing; an empty bitmap
    // costs nothing.
    if (bit_count_ > 0) std::fill(words_.begin(), words_.end(), 0ull);
    bit_count_ = 0;
    bitmap_ = false;
  }
}

void HybridSet::grow_universe(std::size_t need) {
  if (need <= universe_) return;
  universe_ = need;
  if (bitmap_) words_.resize((universe_ + 63) / 64, 0ull);
}

bool HybridSet::insert(std::uint32_t id) {
  if (id >= universe_) grow_universe(static_cast<std::size_t>(id) + 1);
  if (bitmap_) {
    std::uint64_t& word = words_[id >> 6];
    const std::uint64_t bit = 1ull << (id & 63);
    if (word & bit) return false;
    word |= bit;
    ++bit_count_;
    return true;
  }
  if (detail::unsorted_contains(tail_, id)) return false;
  std::size_t pos = 0;
  if (detail::gallop_contains(main_, id, pos)) {
    // Present in main_ unless tombstoned; a tombstoned id resurrects by
    // cancelling its pending erase.
    for (std::size_t i = 0; i < dead_.size(); ++i) {
      if (dead_[i] == id) {
        dead_[i] = dead_.back();
        dead_.pop_back();
        return true;
      }
    }
    return false;
  }
  tail_.push_back(id);
  if (tail_.size() >= kStageCap) {
    flush();
    if (main_.size() >= promote_threshold(universe_)) promote();
  }
  return true;
}

bool HybridSet::erase(std::uint32_t id) {
  if (id >= universe_) return false;
  if (bitmap_) {
    std::uint64_t& word = words_[id >> 6];
    const std::uint64_t bit = 1ull << (id & 63);
    if ((word & bit) == 0) return false;
    word &= ~bit;
    --bit_count_;
    return true;
  }
  for (std::size_t i = 0; i < tail_.size(); ++i) {
    if (tail_[i] == id) {
      tail_[i] = tail_.back();
      tail_.pop_back();
      return true;
    }
  }
  std::size_t pos = 0;
  if (!detail::gallop_contains(main_, id, pos)) return false;
  if (detail::unsorted_contains(dead_, id)) return false;  // already erased
  dead_.push_back(id);
  if (dead_.size() >= kStageCap) flush();
  return true;
}

bool HybridSet::contains(std::uint32_t id) const noexcept {
  if (id >= universe_) return false;
  if (bitmap_) return (words_[id >> 6] >> (id & 63)) & 1u;
  if (detail::unsorted_contains(tail_, id)) return true;
  std::size_t pos = 0;
  return detail::gallop_contains(main_, id, pos) &&
         !detail::unsorted_contains(dead_, id);
}

void HybridSet::flush() {
  if (tail_.empty() && dead_.empty()) return;
  std::sort(tail_.begin(), tail_.end());
  std::sort(dead_.begin(), dead_.end());
  scratch_.clear();
  scratch_.reserve(main_.size() + tail_.size());
  // One pass: merge main_ (minus dead_) with tail_. The three runs are
  // sorted and mutually disjoint by the staging invariants.
  std::size_t i = 0, j = 0, d = 0;
  while (i < main_.size() || j < tail_.size()) {
    if (d < dead_.size() && i < main_.size() && main_[i] == dead_[d]) {
      ++i;
      ++d;
      continue;
    }
    if (j >= tail_.size() ||
        (i < main_.size() && main_[i] < tail_[j])) {
      scratch_.push_back(main_[i++]);
    } else {
      scratch_.push_back(tail_[j++]);
    }
  }
  main_.swap(scratch_);
  tail_.clear();
  dead_.clear();
}

std::size_t HybridSet::diff_against_main(std::span<const std::uint32_t> ids) {
  flush();
  scratch_.resize(ids.size());
  scratch_pos_.resize(ids.size());
  // Gallop with an advancing hint: ids and main_ both strictly increase, so
  // each probe starts where the last one stopped — O(log gap) per id — and
  // lands on the id's lower bound, which is its insertion point.
  std::size_t pos = 0;
  std::size_t k = 0;
  for (const std::uint32_t id : ids) {
    if (detail::gallop_contains(main_, id, pos)) continue;
    scratch_[k] = id;
    scratch_pos_[k] = static_cast<std::uint32_t>(pos);
    ++k;
  }
  return k;
}

void HybridSet::promote() {
  flush();
  words_.assign((universe_ + 63) / 64, 0ull);
  // main_ is sorted and unique, so the word-run union kernel sets every
  // bit exactly once and its newly-set count is the cardinality.
  bit_count_ = simd::bitmap_set_u32(words_.data(), main_.data(), main_.size());
  bitmap_ = true;
  main_.clear();
  tail_.clear();
  dead_.clear();
}

}  // namespace digg::platform
