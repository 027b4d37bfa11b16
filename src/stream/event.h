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
// The stream is NOT materialised: an EventStream is just the story table
// (slot-indexed views into storage owned by the caller) plus the cached
// event total. The engine cuts the global order at any event count by
// binary searches over the per-story time columns (each already sorted), so
// replaying a memory-mapped million-user corpus costs no O(total votes)
// event copy or merge — the columns are read in place from wherever the
// views point, including a load_snapshot_mmap mapping.

#include <cstdint>
#include <vector>

#include "src/digg/types.h"

namespace digg::stream {

/// A replayable stream: the story table plus the event total. Views alias
/// storage owned by the caller — keep the corpus (and any mmap backing it)
/// alive while the stream is in use.
struct EventStream {
  std::vector<platform::StoryView> stories;  // slot -> story
  std::uint64_t total = 0;                   // sum of story vote counts

  [[nodiscard]] std::uint64_t total_events() const noexcept { return total; }
};

}  // namespace digg::stream
