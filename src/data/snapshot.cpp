#include "src/data/snapshot.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/dynamics/model.h"
#include "src/obs/metrics.h"
#include "src/runtime/parallel.h"

namespace digg::data {

namespace {

using snapfmt::ByteBuffer;
using snapfmt::ByteReader;

// DIGGSNAP is little-endian, and the CSR offset columns are written from
// and mapped back as size_t words: the host must share the on-disk u64
// layout.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t) &&
                  std::endian::native == std::endian::little,
              "DIGGSNAP binds its u64 columns as native size_t words");

ByteBuffer encode_network(const graph::Digraph& g) {
  ByteBuffer out;
  out.pod(static_cast<std::uint64_t>(g.node_count()));
  out.pod(static_cast<std::uint64_t>(g.edge_count()));
  out.column(g.out_offsets());
  out.column(g.out_targets());
  // Keep the u64 columns 8-byte aligned within the body so mapped readers
  // can bind them in place.
  out.pad8();
  out.column(g.in_offsets());
  out.column(g.in_sources());
  return out;
}

ByteBuffer encode_model_id(std::string_view id) {
  ByteBuffer out;
  out.pod(static_cast<std::uint64_t>(id.size()));
  out.raw(id.data(), id.size());
  return out;
}

/// Reads the MODELINFO section if present; files that predate it carry the
/// legacy two-mechanism model. An id outside dynamics::kModelIds is a load
/// error — analyses keyed on the model (scenario comparisons, predictor
/// calibration) must not silently misattribute data. The id is borrowed
/// before it is copied, so a hostile length fails the section bounds check
/// instead of sizing an allocation.
std::string read_model_id(const snapfmt::MmapSectionFile& file) {
  if (file.entries(snapfmt::kModelInfo).empty())
    return dynamics::kLegacyModelId;
  ByteReader r = file.open(snapfmt::kModelInfo);
  const std::span<const char> bytes =
      r.borrow(static_cast<std::size_t>(r.pod<std::uint64_t>()));
  std::string id(bytes.begin(), bytes.end());
  if (std::ranges::find(dynamics::kModelIds, id) == dynamics::kModelIds.end())
    throw std::runtime_error(file.context() + "unknown generative model id '" +
                             id + "'");
  return id;
}

ByteBuffer encode_top_users(std::span<const UserId> top_users) {
  ByteBuffer out;
  out.pod(static_cast<std::uint64_t>(top_users.size()));
  out.column(top_users);
  return out;
}

void record_save_metrics(const std::filesystem::path& path,
                         std::chrono::steady_clock::time_point start) {
  obs::Registry::global()
      .counter("data.snapshot_save_bytes")
      .inc(static_cast<std::size_t>(std::filesystem::file_size(path)));
  obs::Registry::global()
      .histogram("data.snapshot_save_us")
      .observe(std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start)
                   .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Streaming writer

SnapshotWriter::SnapshotWriter(const std::filesystem::path& path,
                               std::size_t chunk_target_bytes)
    : out_(path), chunk_target_bytes_(chunk_target_bytes) {}

void SnapshotWriter::write_network(const graph::Digraph& network) {
  if (network_written_)
    throw std::logic_error("SnapshotWriter: network written twice");
  out_.add(snapfmt::kNetwork, encode_network(network));
  network_written_ = true;
}

void SnapshotWriter::write_model_id(std::string_view model_id) {
  if (model_written_)
    throw std::logic_error("SnapshotWriter: model id written twice");
  out_.add(snapfmt::kModelInfo, encode_model_id(model_id));
  model_written_ = true;
}

void SnapshotWriter::add_votes(std::span<const UserId> voters,
                               std::span<const platform::Minutes> times) {
  if (voters.size() != times.size())
    throw std::invalid_argument(
        "SnapshotWriter::add_votes: column length mismatch");
  chunk_users_.raw(voters.data(), voters.size() * sizeof(UserId));
  chunk_times_.raw(times.data(), times.size() * sizeof(platform::Minutes));
  offsets_.push_back(offsets_.back() + voters.size());
  if (chunk_users_.size() + chunk_times_.size() >= chunk_target_bytes_)
    flush_chunk();
}

void SnapshotWriter::flush_chunk() {
  // Chunks cut at story boundaries only; an in-flight chunk covering zero
  // stories (right after a flush, or an empty corpus) writes nothing.
  if (story_count() == chunk_first_story_) return;
  chunk_table_.push_back(ChunkRef{chunk_first_story_, chunk_first_vote_});
  out_.add(snapfmt::kVotesUsers, chunk_users_);
  out_.add(snapfmt::kVotesTimes, chunk_times_);
  chunk_users_ = ByteBuffer{};
  chunk_times_ = ByteBuffer{};
  chunk_first_story_ = story_count();
  chunk_first_vote_ = offsets_.back();
}

void SnapshotWriter::add_story(const Story& story) {
  ids_.push_back(story.id);
  submitters_.push_back(story.submitter);
  submitted_at_.push_back(story.submitted_at);
  quality_.push_back(story.quality);
  phases_.push_back(static_cast<std::uint8_t>(story.phase));
  has_promoted_.push_back(story.promoted() ? 1 : 0);
  promoted_at_.push_back(story.promoted_at.value_or(0.0));
}

void SnapshotWriter::write_top_users(std::span<const UserId> top_users) {
  if (top_users_written_)
    throw std::logic_error("SnapshotWriter: top users written twice");
  out_.add(snapfmt::kTopUsers, encode_top_users(top_users));
  top_users_written_ = true;
}

void SnapshotWriter::finish() {
  if (!network_written_)
    throw std::logic_error("SnapshotWriter: finish without write_network");
  if (!top_users_written_)
    throw std::logic_error("SnapshotWriter: finish without write_top_users");
  if (ids_.size() != story_count())
    throw std::logic_error(
        "SnapshotWriter: add_story/add_votes call counts disagree");
  flush_chunk();

  ByteBuffer stories;
  stories.pod(static_cast<std::uint64_t>(story_count()));
  stories.column(ids_);
  stories.column(submitters_);
  stories.column(submitted_at_);
  stories.column(quality_);
  stories.column(phases_);
  stories.column(has_promoted_);
  stories.column(promoted_at_);
  out_.add(snapfmt::kStories, stories);

  ByteBuffer index;
  index.pod(static_cast<std::uint64_t>(story_count()));
  index.pod(offsets_.back());
  index.pod(static_cast<std::uint64_t>(chunk_table_.size()));
  index.column(offsets_);
  for (const ChunkRef& c : chunk_table_) {
    index.pod(c.first_story);
    index.pod(c.first_vote);
  }
  out_.add(snapfmt::kVotesIndex, index);

  out_.finish();
}

// ---------------------------------------------------------------------------
// Whole-corpus save

void save_snapshot(const Corpus& corpus, const std::filesystem::path& path,
                   std::size_t chunk_target_bytes) {
  const auto start = std::chrono::steady_clock::now();
  SnapshotWriter writer(path, chunk_target_bytes);
  writer.write_network(corpus.network);
  writer.write_model_id(corpus.model_id);
  const auto each = [&](auto&& emit) {
    for (const Story& s : corpus.front_page) emit(s);
    for (const Story& s : corpus.upcoming) emit(s);
  };
  each([&](const Story& s) { writer.add_votes(s.voters(), s.times()); });
  each([&](const Story& s) { writer.add_story(s); });
  writer.write_top_users(corpus.top_users);
  writer.finish();
  record_save_metrics(path, start);
}

// ---------------------------------------------------------------------------
// Loader

namespace {

/// The one corpus parser: reads every corpus section of a mapped snapshot
/// and binds the network CSR (on hosts with the native u64 layout) and the
/// vote columns zero-copy into the mapping. Checks the structure that makes
/// the views safe to read — offset monotonicity, section cross-consistency,
/// CSR shape, story phases — and verifies the checksum of every section it
/// reads (vote chunks in parallel). Content ranges are validate()'s job.
/// The returned corpus borrows from `map`; the caller keeps it alive.
Corpus parse_snapshot(const snapfmt::MmapSectionFile& map) {
  const std::string& ctx = map.context();
  Corpus corpus;
  corpus.model_id = read_model_id(map);

  {
    ByteReader r = map.open(snapfmt::kNetwork);
    const auto n = static_cast<std::size_t>(r.pod<std::uint64_t>());
    const auto edges = static_cast<std::size_t>(r.pod<std::uint64_t>());
    try {
      // Bind the CSR columns in place; from_views validates structure.
      const auto as_u64 = [](std::span<const char> s) {
        return std::span<const std::size_t>(
            reinterpret_cast<const std::size_t*>(s.data()), s.size() / 8);
      };
      const auto as_node = [](std::span<const char> s) {
        return std::span<const graph::NodeId>(
            reinterpret_cast<const graph::NodeId*>(s.data()), s.size() / 4);
      };
      const auto out_offsets = as_u64(r.borrow((n + 1) * 8));
      const auto out_targets = as_node(r.borrow(edges * 4));
      r.align8();
      const auto in_offsets = as_u64(r.borrow((n + 1) * 8));
      const auto in_sources = as_node(r.borrow(edges * 4));
      corpus.network = graph::Digraph::from_views(out_offsets, out_targets,
                                                  in_offsets, in_sources);
    } catch (const std::invalid_argument& err) {
      throw std::runtime_error(ctx + err.what());
    }
  }

  // STORIES: one total, then columns over all stories in file order.
  ByteReader sr = map.open(snapfmt::kStories);
  const auto count = static_cast<std::size_t>(sr.pod<std::uint64_t>());
  const auto ids = sr.column<StoryId>(count);
  const auto submitters = sr.column<UserId>(count);
  const auto submitted_at = sr.column<double>(count);
  const auto quality = sr.column<double>(count);
  const auto phases = sr.column<std::uint8_t>(count);
  const auto has_promoted = sr.column<std::uint8_t>(count);
  const auto promoted_at = sr.column<double>(count);

  {
    ByteReader r = map.open(snapfmt::kVotesIndex);
    if (static_cast<std::size_t>(r.pod<std::uint64_t>()) != count)
      throw std::runtime_error(ctx + "story count mismatch between sections");
    const auto total = r.pod<std::uint64_t>();
    const auto chunk_count = static_cast<std::size_t>(r.pod<std::uint64_t>());
    const std::span<const char> offsets_raw = r.borrow((count + 1) * 8);
    const std::span<const std::uint64_t> offsets(
        reinterpret_cast<const std::uint64_t*>(offsets_raw.data()),
        count + 1);
    if (offsets.back() != total)
      throw std::runtime_error(ctx + "vote chunk size mismatch");
    // The table bounds chunk_count before anything is sized by it.
    const auto user_chunks = map.entries(snapfmt::kVotesUsers);
    const auto time_chunks = map.entries(snapfmt::kVotesTimes);
    if (user_chunks.size() != chunk_count || time_chunks.size() != chunk_count)
      throw std::runtime_error(ctx + "vote chunk count mismatch");
    std::vector<std::pair<std::uint64_t, std::uint64_t>> firsts;
    firsts.reserve(chunk_count);
    for (std::size_t c = 0; c < chunk_count; ++c) {
      const auto story = r.pod<std::uint64_t>();
      firsts.emplace_back(story, r.pod<std::uint64_t>());
    }

    // First touch of every vote chunk — checksum verification dominates
    // large loads, and chunking makes it embarrassingly parallel. A bad
    // chunk throws from the lowest-indexed failing chunk.
    std::vector<VoteChunkView> chunks(chunk_count);
    runtime::parallel_for(chunk_count, [&](std::size_t c) {
      const std::span<const char> u = map.view(*user_chunks[c]);
      const std::span<const char> t = map.view(*time_chunks[c]);
      if (u.size() % sizeof(UserId) != 0 ||
          t.size() != (u.size() / sizeof(UserId)) * sizeof(platform::Minutes))
        throw std::runtime_error(ctx + "vote chunk size mismatch");
      chunks[c] = VoteChunkView{
          static_cast<std::size_t>(firsts[c].first),
          firsts[c].second,
          {reinterpret_cast<const UserId*>(u.data()),
           u.size() / sizeof(UserId)},
          {reinterpret_cast<const platform::Minutes*>(t.data()),
           t.size() / sizeof(platform::Minutes)}};
    });
    try {
      corpus.vote_store = VoteStore::from_views(offsets, std::move(chunks));
    } catch (const std::invalid_argument& err) {
      throw std::runtime_error(ctx + err.what());
    }
  }

  {
    ByteReader r = map.open(snapfmt::kTopUsers);
    const auto n = static_cast<std::size_t>(r.pod<std::uint64_t>());
    corpus.top_users = r.column<UserId>(n);
  }

  // Slot i is file-order story i; the promotion flag picks the bucket, so
  // file order can be anything (submission order for streamed files,
  // front-first for saved corpora).
  for (std::size_t i = 0; i < count; ++i) {
    if (phases[i] > static_cast<std::uint8_t>(platform::StoryPhase::kExpired))
      throw std::runtime_error(ctx + "bad story phase");
    Story s;
    s.id = ids[i];
    s.submitter = submitters[i];
    s.submitted_at = submitted_at[i];
    s.quality = quality[i];
    s.phase = static_cast<platform::StoryPhase>(phases[i]);
    if (has_promoted[i]) s.promoted_at = promoted_at[i];
    const auto slot = static_cast<std::uint32_t>(i);
    s.bind(corpus.vote_store.voters(slot), corpus.vote_store.times(slot),
           slot);
    (has_promoted[i] ? corpus.front_page : corpus.upcoming)
        .push_back(std::move(s));
  }
  return corpus;
}

}  // namespace

Corpus load_snapshot_mmap(const std::filesystem::path& path) {
  auto map = std::make_shared<const snapfmt::MmapSectionFile>(path);
  Corpus corpus = parse_snapshot(*map);
  map->verify_all();  // only the sections the parse never reads are left
  try {
    validate(corpus);
  } catch (const std::runtime_error& err) {
    throw std::runtime_error(map->context() + err.what());
  }
  corpus.backing = std::move(map);
  obs::Registry::global()
      .gauge("data.corpus_vote_column_bytes")
      .set(static_cast<double>(corpus.vote_store.size_bytes()));
  return corpus;
}

}  // namespace digg::data
