#pragma once
// Versioned binary snapshots of a Corpus — the fast path next to the CSV
// pair in io.h. The columnar corpus maps almost 1:1 onto flat arrays, so a
// snapshot is a header, a section table, and a handful of bulk column
// blobs. There is one loader, load_snapshot_mmap: it binds story views
// zero-copy into a memory mapping of the file, verifies every section's
// checksum and validates the corpus before returning it.
//
// The container discipline (magic, version, section table, checksums, the
// malformed-file error taxonomy, and the section-type registry) lives in
// snapshot_format.h and is shared with the stream-engine checkpoints; this
// header is the corpus-specific payload on top of it.
//
// Corpus sections (all section bodies start 8-byte aligned so
// mapped readers can bind typed spans; `pad` = zero bytes to the next
// 8-byte boundary):
//   1 NETWORK      u64 n, u64 e, out_offsets u64[n+1], out_targets u32[e],
//                  pad, in_offsets u64[n+1], in_sources u32[e]
//   2 STORIES      u64 S, then columns over all S stories in file order:
//                  id u32[S], submitter u32[S], submitted_at f64[S],
//                  quality f64[S], phase u8[S], has_promoted u8[S],
//                  promoted_at f64[S] (0 where has_promoted is 0).
//                  Loaders partition by has_promoted (promoted stories →
//                  front_page, rest → upcoming), preserving file order
//                  within each bucket — so the file can store stories in
//                  submission order (streamed generation) or front-first
//                  (save_snapshot of a corpus) interchangeably.
//   5 VOTES_INDEX  u64 S, u64 total, u64 chunk_count,
//                  offsets u64[S+1] (global vote offsets per story),
//                  chunk_count * {u64 first_story, u64 first_vote}
//   6 VOTES_USERS  voter column of one chunk: u32[chunk_votes]  (repeated;
//                  the i-th entry of this type is chunk i)
//   7 VOTES_TIMES  time column of one chunk: f64[chunk_votes]   (repeated)
//   4 TOPUSERS     u64 count, user u32[count]
//   8 MODELINFO    u64 length, id bytes (UTF-8, no terminator) — the
//                  generative model id that generated the votes.
//                  Optional: files that predate it load as the legacy
//                  two-mechanism model; an id outside dynamics::kModelIds
//                  is a load error.
// Vote chunks are bounded (~chunk_target_bytes per column) and cut at
// story boundaries, so a writer can stream millions of stories with a
// bounded working set and a mapped reader can verify chunk checksums in
// parallel.
//
// Readers reject files of any version but kSnapshotVersion ("unsupported
// version"), truncated files, bad magic, and checksum mismatches with
// distinct messages (see snapshot_format.h).

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string_view>

#include "src/data/corpus.h"
#include "src/data/snapshot_format.h"

namespace digg::data {

/// Bounded size target for one vote chunk's columns (voters + times).
inline constexpr std::size_t kDefaultVoteChunkBytes = std::size_t{8} << 20;

/// Streams a corpus snapshot to disk with a bounded working set: the
/// network goes out up front, vote columns leave RAM chunk by chunk as
/// stories finish, and only the per-story metadata (O(stories), not
/// O(votes)) accumulates until finish(). This is what lets million-user
/// generation write a corpus it could never hold in memory.
///
/// Protocol: write_network() once, add_votes() once per story in file
/// order, add_story() once per story in the same order (interleaved with
/// add_votes or batched at the end — streamed generation only knows final
/// phases once every story has run), write_top_users() once, finish().
class SnapshotWriter {
 public:
  explicit SnapshotWriter(const std::filesystem::path& path,
                          std::size_t chunk_target_bytes =
                              kDefaultVoteChunkBytes);

  void write_network(const graph::Digraph& network);
  /// Records which generative model produced the vote records (MODELINFO
  /// section). Call at most once, any time before finish(); omitting it
  /// leaves a file that loads as the legacy two-mechanism model.
  void write_model_id(std::string_view model_id);
  /// One story's vote columns, appended to the current chunk (flushed to
  /// disk when it reaches the chunk target).
  void add_votes(std::span<const UserId> voters,
                 std::span<const platform::Minutes> times);
  /// One story's metadata (vote spans of the view are ignored — counts
  /// live in the offsets column fed by add_votes).
  void add_story(const Story& story);
  void write_top_users(std::span<const UserId> top_users);
  /// Flushes the last chunk, writes STORIES + VOTES_INDEX + table, and
  /// seals the file. Throws std::logic_error if the add_votes/add_story
  /// call counts disagree.
  void finish();

  [[nodiscard]] std::uint64_t total_votes() const { return offsets_.back(); }
  [[nodiscard]] std::size_t story_count() const {
    return offsets_.size() - 1;
  }

 private:
  void flush_chunk();

  snapfmt::SectionFileWriter out_;
  std::size_t chunk_target_bytes_;
  bool network_written_ = false;
  bool top_users_written_ = false;
  bool model_written_ = false;

  // O(stories) metadata accumulators, written in finish().
  std::vector<StoryId> ids_;
  std::vector<UserId> submitters_;
  std::vector<double> submitted_at_, quality_, promoted_at_;
  std::vector<std::uint8_t> phases_, has_promoted_;
  std::vector<std::uint64_t> offsets_{0};
  struct ChunkRef {
    std::uint64_t first_story = 0;
    std::uint64_t first_vote = 0;
  };
  std::vector<ChunkRef> chunk_table_;

  // The in-flight chunk (bounded by chunk_target_bytes_).
  snapfmt::ByteBuffer chunk_users_, chunk_times_;
  std::uint64_t chunk_first_story_ = 0;
  std::uint64_t chunk_first_vote_ = 0;
};

/// Writes `corpus` as a binary snapshot at `path` (parent directories are
/// created). Throws std::runtime_error on I/O failure.
void save_snapshot(const Corpus& corpus, const std::filesystem::path& path,
                   std::size_t chunk_target_bytes = kDefaultVoteChunkBytes);

/// The one corpus snapshot loader. Memory-maps the file and binds the
/// corpus zero-copy into the mapping: story views, vote columns, and (on
/// 64-bit little-endian hosts) the network CSR all borrow file-backed
/// spans. The parse checks the structure that makes the views safe to read
/// (offset monotonicity, section cross-consistency, CSR shape, story
/// phases) and verifies the checksum of every section it reads, vote
/// chunks in parallel; then the checksums of the sections it never reads
/// (unknown types) are verified too, and the corpus is validated (see
/// corpus.h): voter and submitter ranges, vote order, finite times,
/// duplicate voters and story ids. Throws std::runtime_error naming the
/// file on any I/O, format, integrity or content error.
///
/// The returned corpus keeps the mapping alive via Corpus::backing, which
/// moves with it. Zero-copy has one cost: a file that another process
/// truncates in place while it is mapped raises SIGBUS on the next read of
/// a lost page. This library's writers replace files by rename, so they
/// never do that.
[[nodiscard]] Corpus load_snapshot_mmap(const std::filesystem::path& path);

}  // namespace digg::data
