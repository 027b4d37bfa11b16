#pragma once
// Stream-engine checkpoints: the DIGGSNAP sections that make a replay
// killable and resumable with bit-identical results. StreamEngine::
// save_checkpoint / restore_checkpoint (engine.h) are implemented in
// checkpoint.cpp against this format; this header documents the payloads
// and offers a cheap inspection helper.
//
// A checkpoint is a DIGGSNAP container (data/snapshot_format.h) with two
// sections:
//
//   STREAM_META (16) — everything needed to refuse a mismatched restore:
//     u32  checkpoint version (kStreamCheckpointVersion)
//     u32  predictor armed (0/1 — online-prediction hook active)
//     u64  stream fingerprint: the stream's identity (event.h — stories
//          and vote columns, folded once by build_event_stream) plus the
//          graph shape; live engines fingerprint the graph shape + a live
//          tag
//     u64  total events        u64  events applied
//     u64  story count         u64  interesting threshold
//     u32  bayes fit enabled (0/1)
//     u32  live mode (0/1)
//   The checkpoint lists, the vote-10 decision point of both predictors
//   and the 43-vote promotion rule are fixed (engine.h, bayes.h), so the
//   version number stands for them.
//
//   STREAM_STATE (17) — per-story progress columns, story-slot order:
//     u64[S]      votes applied
//     u32[S]      running in-network count
//     u8[S]       flags (prediction made / predicted yes / promoted /
//                 bayes fit made / bayes yes)
//     f64[S]      promotion time (valid when the promoted flag is set)
//     u32[S*3]    recorded cascade values, v6/v10/v20
//                 (0xffffffff = not yet reached)
//     u32[S*3]    recorded influence values at 1/11/21 votes (same sentinel)
//     u32[S]      influence after the applied prefix (replay: what result()
//                 reports for an unreached influence checkpoint; live
//                 engines recount it and write 0)
//     f32[S]      bayes expected-final estimate  [iff bayes enabled]
//
//   SERVE_STORIES (18) — live-mode checkpoints only. A live engine has no
//   replay stream to re-derive story identity or vote prefixes from, so
//   the checkpoint carries them (still O(stories * horizon), not O(votes)
//   — the prefixes are bounded):
//     u32[S]      story ids          u32[S]  submitters
//     u32[S]      prefix length (min(applied, horizon))
//     pad to 8    f64[S]  latest vote time per story (ordering watermark)
//     u32[sum]    concatenated prefix voter columns
//     pad to 8    f64[sum] concatenated prefix time columns
//
// Deliberately NOT serialized: the Bayes watcher exposure (recounted from
// the prefix when the fit lands) and per-shard cursors (the per-story
// applied counts are the cursor state). The checkpoint is therefore small —
// O(stories), not O(votes or graph). Version 4 dropped version 3's f64 exposure column; version
// 5 dropped the promotion threshold and both checkpoint lists from
// STREAM_META when they became constants (STREAM_STATE is unchanged).
// Version 6 fingerprints the stream identity build_event_stream folds (so
// a version-5 fingerprint no longer matches) and adds the influence
// column, which spares result() an influence recount per short story.
// Version 7 drops the Bayes fit point from STREAM_META: the fit now always
// decides at vote 10, with the C4.5 hook (STREAM_STATE is unchanged).
//
// Restore-time validation (each with a distinct error): container magic /
// version / checksum of every section (snapshot_format.cpp), checkpoint
// version (exactly kStreamCheckpointVersion; any other value is refused
// with "unsupported stream checkpoint version N"), stream
// fingerprint, engine config equality, column sizes, and per-story
// consistency — the applied column must be exactly the per-story event
// counts of the stream's first events-applied events, records present iff
// their checkpoint was reached, flags consistent with progress, the
// influence column within the graph's user count (0 before any vote), and
// live
// prefixes that live_vote could have built (voters in range and distinct,
// times finite and sorted, vote 0 the submitter, a finite watermark).

#include <cstdint>
#include <filesystem>

namespace digg::stream {

inline constexpr std::uint32_t kStreamCheckpointVersion = 7;

/// Cheap peek at a checkpoint's STREAM_META section (full container
/// integrity is still verified). Lets tools report progress or pick the
/// right corpus without constructing an engine.
struct CheckpointInfo {
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t total_events = 0;
  std::uint64_t events_applied = 0;
  std::uint64_t story_count = 0;
  bool live = false;  // live-ingest checkpoint
};

[[nodiscard]] CheckpointInfo read_checkpoint_info(
    const std::filesystem::path& path);

}  // namespace digg::stream
