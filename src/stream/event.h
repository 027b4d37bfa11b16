#pragma once
// The vote-event vocabulary of the streaming engine. A corpus (or any other
// set of stories) is replayed as ONE time-ordered stream of vote events —
// the paper's own framing: Hogg & Lerman (arXiv:1202.0031) and Lerman
// (cs/0612046) both model Digg activity as a time-ordered arrival process,
// and every §4–§5 quantity (influence, in-network cascades, the (v10, fans1)
// feature pair) is a function of a vote-arrival prefix.
//
// Ordering contract: the global order is (time, story slot, vote index).
// Vote times within one story are non-decreasing (corpus invariant), so this
// order applies every story's votes in recorded vote order — the engine's
// incremental state is therefore a prefix of exactly the columns the batch
// pipeline scans, which is what makes batch/stream bit-identity provable.
//
// The stream is NOT materialised: an EventStream is the story table
// (slot-indexed views into storage owned by the caller), the cached event
// total, and what build_event_stream (source.h) learned in its one pass
// over the vote columns. The engine cuts the global order at any event
// count by binary searches over the per-story time columns (each already
// sorted), so replaying a memory-mapped million-user corpus costs no
// O(total votes) event copy or merge — the columns are read in place from
// wherever the views point, including a load_snapshot_mmap mapping.
//
// Validation and identity live here, not in the engine. build_event_stream
// is the only O(votes) pass: it checks that each story's two columns agree
// and that its times are finite and non-decreasing, sums the total, and
// folds the per-story identity (ids, submitters, voter and time columns).
// It stores that identity, or the first defect it found, in the stream,
// plus a digest of the story table itself (ids, submitters, column
// pointers and lengths). A StreamEngine built over the stream then costs
// O(stories): it throws a recorded defect, re-checks the table digest (a
// table changed after the build, or one never built, is refused),
// re-sums the total and checks submitters against its graph.

#include <cstdint>
#include <vector>

#include "src/digg/types.h"

namespace digg::stream {

/// A replayable stream: the story table plus the event total. Views alias
/// storage owned by the caller — keep the corpus (and any mmap backing it)
/// alive while the stream is in use. Build it with build_event_stream; the
/// engine refuses a table edited afterwards.
struct EventStream {
  std::vector<platform::StoryView> stories;  // slot -> story
  std::uint64_t total = 0;                   // sum of story vote counts
  /// FNV-1a fold of the story count and every story's id, submitter, vote
  /// count, voter column and time column. Pointer-free, so it names the
  /// same data in any process; the engine's checkpoint fingerprint is this
  /// plus the network shape. 0 when `defect` is set.
  std::uint64_t identity = 0;
  /// story_table_digest(stories) as built.
  std::uint64_t table_digest = 0;
  /// The first defect build_event_stream found in the columns (a static
  /// message), or nullptr for a valid stream.
  const char* defect = nullptr;

  [[nodiscard]] std::uint64_t total_events() const noexcept { return total; }
};

/// O(stories) digest of the story table: every story's id, submitter, and
/// its two columns' pointers and lengths — not the column contents, which
/// the identity covers.
[[nodiscard]] std::uint64_t story_table_digest(
    const std::vector<platform::StoryView>& stories) noexcept;

}  // namespace digg::stream
