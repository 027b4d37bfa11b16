#pragma once
// Hybrid small-set over uint32 keys in a bounded universe: a set whose bytes
// scale with its cardinality, capped by a bitmap. It was built for per-story
// sets kept by the thousand, where a dense array costs O(universe) bytes per
// set no matter how small the set is. No library path uses it any more:
// VisibilitySet keeps two plain bitmaps (one live set per worker), and the
// analysis recounts from the vote prefix. Its remaining callers are
// bench/perf_visibility, the benchmark's digg.union_* gauge and the tests,
// so it goes with the next benchmark change. It keeps two representations
// and promotes one way:
//
//   - ARRAY mode (the common case): a sorted unique uint32 vector `main_`
//     plus two small unsorted staging buffers — `tail_` for pending inserts
//     and `dead_` for pending erases (tombstones). Staging keeps single
//     inserts/erases O(log n + kStageCap) amortized instead of an O(n)
//     memmove each, and is folded into `main_` (flush) before any bulk op.
//     Membership is a galloping binary search; bulk union with a sorted span
//     (a CSR fan list) is a galloping set-difference candidate pass followed
//     by one backward in-place merge — a set already saturated with the span
//     costs only the lookups, no rewrite.
//   - BITMAP mode: a word-packed bitmap of universe bits plus a size
//     counter. Entered once size() crosses promote_threshold(universe) — the
//     point where the sorted array would outweigh the bitmap
//     (4*size >= universe/8) — and left only by reset(). All ops
//     become O(1) word probes; a span union is O(|span|), through the AVX2
//     bitmap pair of src/simd where the host has AVX2.
//
// Both modes implement exact set semantics, so every query result is
// independent of the representation. Determinism contract:
// iteration-order-sensitive callers only observe union_span's on_new
// callback, which fires in span order in both modes.
//
// Keys may exceed the declared universe (vote columns can reference users
// outside the fan graph); insert grows the universe on demand, like the
// dense set's implicit resize.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/simd/dispatch.h"

namespace digg::platform {

class HybridSet {
 public:
  /// Staging-buffer capacity: small enough that linear scans stay in one or
  /// two cache lines, large enough to amortize the flush memmove.
  static constexpr std::size_t kStageCap = 64;

  HybridSet() = default;
  explicit HybridSet(std::size_t universe) { reset(universe); }

  /// Array mode is kept while 4*size < universe/8, i.e. while the sorted
  /// array is strictly smaller than the bitmap would be. The kStageCap floor
  /// keeps tiny universes from promoting before staging even fills.
  [[nodiscard]] static std::size_t promote_threshold(
      std::size_t universe) noexcept {
    return universe / 32 > kStageCap ? universe / 32 : kStageCap;
  }

  /// Empties the set and (re)declares the key universe [0, universe).
  /// Allocated buffers are kept for reuse — a thread_local scratch instance
  /// replayed across thousands of stories allocates only on the largest
  /// universe it has seen. Representation returns to array mode.
  void reset(std::size_t universe);

  /// Inserts `id`, growing the universe if needed. Returns true if the id
  /// was not already present.
  bool insert(std::uint32_t id);

  /// Removes `id` if present; returns true if it was.
  bool erase(std::uint32_t id);

  [[nodiscard]] bool contains(std::uint32_t id) const noexcept;

  /// Unions a strictly-increasing span of ids (a CSR adjacency row) into the
  /// set. For each id not already present, `accept(id)` decides whether it
  /// joins; `on_new(id)` fires for each id actually inserted, in span order.
  /// accept/on_new must not touch this set.
  template <class Accept, class OnNew>
  void union_span(std::span<const std::uint32_t> ids, Accept&& accept,
                  OnNew&& on_new);

  void union_span(std::span<const std::uint32_t> ids) {
    union_span(
        ids, [](std::uint32_t) { return true; }, [](std::uint32_t) {});
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return bitmap_ ? bit_count_ : main_.size() + tail_.size() - dead_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] bool is_bitmap() const noexcept { return bitmap_; }
  [[nodiscard]] std::size_t universe() const noexcept { return universe_; }

 private:
  /// Folds the staging buffers into main_ (array mode only). After flush,
  /// main_ alone is the set.
  void flush();
  /// Array-mode candidate pass: flushes, then writes the ids absent from
  /// main_ to scratch_ (in span order) and each one's lower bound in main_
  /// to scratch_pos_. Returns the candidate count.
  std::size_t diff_against_main(std::span<const std::uint32_t> ids);
  /// Array -> bitmap conversion (flushes first). One-way until reset.
  void promote();
  void grow_universe(std::size_t need);

  std::size_t universe_ = 0;
  bool bitmap_ = false;
  std::vector<std::uint32_t> main_;     // sorted, unique
  std::vector<std::uint32_t> tail_;     // pending inserts, not in main_
  std::vector<std::uint32_t> dead_;     // pending erases, subset of main_
  std::vector<std::uint32_t> scratch_;      // flush/union merge area
  std::vector<std::uint32_t> scratch_pos_;  // union candidates' main_ LBs
  std::vector<std::uint64_t> words_;        // bitmap-mode storage
  std::size_t bit_count_ = 0;           // bitmap-mode cardinality
};

namespace detail {

/// Galloping lower-bound membership probe over a sorted unique array,
/// starting at `pos`: double the step until the key is bracketed, then
/// binary-search the bracket. `pos` advances to the key's lower bound, so a
/// caller walking an ascending query sequence (a sorted fan span) pays
/// O(log gap) per query instead of O(log n). Returns presence.
inline bool gallop_contains(const std::vector<std::uint32_t>& sorted,
                            std::uint32_t key, std::size_t& pos) noexcept {
  const std::size_t n = sorted.size();
  if (pos >= n || sorted[pos] >= key) {
    // Already at or past the bracket; fall through to the final check.
  } else {
    std::size_t step = 1;
    std::size_t lo = pos;
    while (lo + step < n && sorted[lo + step] < key) {
      lo += step;
      step <<= 1;
    }
    std::size_t hi = lo + step < n ? lo + step : n;
    ++lo;  // sorted[lo - 1] < key already established
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (sorted[mid] < key)
        lo = mid + 1;
      else
        hi = mid;
    }
    pos = lo;
  }
  return pos < n && sorted[pos] == key;
}

inline bool unsorted_contains(const std::vector<std::uint32_t>& v,
                              std::uint32_t key) noexcept {
  for (const std::uint32_t x : v)
    if (x == key) return true;
  return false;
}

}  // namespace detail

template <class Accept, class OnNew>
void HybridSet::union_span(std::span<const std::uint32_t> ids, Accept&& accept,
                           OnNew&& on_new) {
#ifndef NDEBUG
  for (std::size_t i = 1; i < ids.size(); ++i)
    assert(ids[i - 1] < ids[i] && "union_span: span must strictly increase");
#endif
  if (ids.empty()) return;
  if (!ids.empty() && ids.back() >= universe_)
    grow_universe(static_cast<std::size_t>(ids.back()) + 1);

  // Both modes run the same two-phase shape: a candidate pass finds the
  // span ids not already present (in span order), then a second pass runs
  // accept/on_new over the candidates and commits the survivors. Splitting
  // membership from the callbacks is unobservable because accept/on_new may
  // not touch this set, and it is what lets the bitmap side vectorize.
  if (bitmap_) {
    scratch_.resize(ids.size() + simd::kPackSlack);
    const std::size_t n_cand = simd::bitmap_missing_u32(
        words_.data(), ids.data(), ids.size(), scratch_.data());
    std::size_t n_acc = 0;
    for (std::size_t i = 0; i < n_cand; ++i) {
      const std::uint32_t id = scratch_[i];
      if (!accept(id)) continue;
      scratch_[n_acc++] = id;  // compact in place; reads stay ahead of writes
      on_new(id);
    }
    bit_count_ += simd::bitmap_set_u32(words_.data(), scratch_.data(), n_acc);
    return;
  }

  // Array mode. Set-subtract the span against main_ to stage only the
  // genuinely new ids: a saturated set pays the lookups and never rewrites.
  // The pass also reports each candidate's lower bound in main_ (it walks
  // there to answer membership anyway), which the commit below consumes.
  const std::size_t n_cand = diff_against_main(ids);
  for (std::size_t i = 0; i < n_cand; ++i) {
    const std::uint32_t id = scratch_[i];
    if (!accept(id)) continue;
    scratch_pos_[tail_.size()] = scratch_pos_[i];  // compact alongside tail_
    tail_.push_back(id);
    on_new(id);
  }
  if (tail_.empty()) return;
  if (main_.size() + tail_.size() >= promote_threshold(universe_)) {
    promote();
    return;
  }
  // Backward in-place block merge of the staged run (already sorted:
  // collected in span order). A branchy element-at-a-time merge costs a
  // compare and an unpredictable branch per main_ element; instead slide
  // the block between consecutive insertion points right in one memmove
  // each — every element still moves at most once and only past the first
  // insertion point, but at memcpy speed. The insertion points come from
  // the candidate pass above, so the merge does no searching at all.
  const std::size_t old_n = main_.size();
  const std::size_t add_n = tail_.size();
  main_.resize(old_n + add_n);
  std::size_t src_end = old_n;  // main_[0, src_end) not yet placed
  for (std::size_t t = add_n; t > 0; --t) {
    const std::size_t lo = scratch_pos_[t - 1];
    if (src_end > lo)
      std::memmove(main_.data() + lo + t, main_.data() + lo,
                   (src_end - lo) * sizeof(std::uint32_t));
    main_[lo + t - 1] = tail_[t - 1];
    src_end = lo;
  }
  tail_.clear();
}

}  // namespace digg::platform
