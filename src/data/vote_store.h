#pragma once
// Arena-backed columnar vote storage for a corpus: every story's voter ids
// and vote times live in two shared contiguous arrays, with a CSR-style
// offset table mapping a story's *slot* to its range. A thousand-story
// corpus is three allocations instead of two per story, snapshot I/O is a
// handful of column writes, and whole-corpus scans (user activity, vote
// histograms) stream one dense array.
//
// Slots are append-only and returned by append(); data::Story (a
// platform::StoryView) records its slot so owners can rebind views after
// the arena relocates (growth).
//
// The store has two modes:
//   - *owned* (default): the columns are vectors and append() grows them;
//   - *borrowed* (from_views): the columns are spans over caller-owned
//     memory — a memory-mapped snapshot's vote chunks — and the store is
//     read-only. The voter/time data may be split across several chunks
//     (bounded chunk bodies in the snapshot format); chunk boundaries
//     always fall on story boundaries, so a story's spans are still
//     contiguous and voters()/times() just add a chunk lookup.

#include <cstdint>
#include <span>
#include <vector>

#include "src/digg/types.h"

namespace digg::data {

/// One borrowed vote chunk: a contiguous run of whole stories whose voter
/// and time columns live in caller-owned memory.
struct VoteChunkView {
  std::size_t first_story = 0;   // global index of the chunk's first story
  std::uint64_t first_vote = 0;  // global index of its first vote
  std::span<const platform::UserId> users;
  std::span<const platform::Minutes> times;
};

class VoteStore {
 public:
  VoteStore() { offsets_view_ = offsets_; }
  VoteStore(VoteStore&&) noexcept = default;  // moved vectors keep buffers
  VoteStore& operator=(VoteStore&&) noexcept = default;
  VoteStore(const VoteStore&) = delete;
  VoteStore& operator=(const VoteStore&) = delete;

  /// Copies one story's columns into the arena; returns its slot.
  /// Throws std::invalid_argument if the columns differ in length and
  /// std::logic_error if the store is borrowed (read-only).
  std::uint32_t append(std::span<const platform::UserId> voters,
                       std::span<const platform::Minutes> times);

  [[nodiscard]] std::span<const platform::UserId> voters(
      std::uint32_t slot) const {
    const std::size_t count =
        static_cast<std::size_t>(offsets_view_[slot + 1] -
                                 offsets_view_[slot]);
    if (!borrowed_) return {users_.data() + offsets_view_[slot], count};
    const VoteChunkView& c = chunk_of(slot);
    return {c.users.data() + (offsets_view_[slot] - c.first_vote), count};
  }
  [[nodiscard]] std::span<const platform::Minutes> times(
      std::uint32_t slot) const {
    const std::size_t count =
        static_cast<std::size_t>(offsets_view_[slot + 1] -
                                 offsets_view_[slot]);
    if (!borrowed_) return {times_.data() + offsets_view_[slot], count};
    const VoteChunkView& c = chunk_of(slot);
    return {c.times.data() + (offsets_view_[slot] - c.first_vote), count};
  }

  [[nodiscard]] std::size_t story_count() const noexcept {
    return offsets_view_.size() - 1;
  }
  [[nodiscard]] std::size_t total_votes() const noexcept {
    return static_cast<std::size_t>(offsets_view_.back());
  }
  /// Bytes addressed by the three columns: heap capacity when owned,
  /// mapped column footprint when borrowed.
  [[nodiscard]] std::size_t size_bytes() const noexcept;

  /// Borrowed-mode assembly over caller-owned columns (memory-mapped
  /// snapshot chunks). Validates that the offset table is monotone and
  /// that the chunks tile the story range exactly; throws
  /// std::invalid_argument on mismatch. The caller must keep the
  /// underlying memory alive for the store's lifetime.
  [[nodiscard]] static VoteStore from_views(
      std::span<const std::uint64_t> offsets,
      std::vector<VoteChunkView> chunks);

 private:
  [[nodiscard]] const VoteChunkView& chunk_of(std::uint32_t slot) const;

  // All reads of the offset table go through this span; it aliases either
  // offsets_ (owned) or a mapped column (borrowed).
  std::span<const std::uint64_t> offsets_view_;
  bool borrowed_ = false;

  // offsets_[s] .. offsets_[s+1] is slot s's range in the data columns.
  std::vector<std::uint64_t> offsets_{0};
  std::vector<platform::UserId> users_;
  std::vector<platform::Minutes> times_;

  // Borrowed mode only: chunks sorted by first_story, tiling [0, S).
  std::vector<VoteChunkView> chunks_;
};

}  // namespace digg::data
