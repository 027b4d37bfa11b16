#include "src/data/snapshot.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/data/io.h"
#include "src/data/synthetic.h"
#include "src/digg/story.h"
#include "src/dynamics/model.h"
#include "tests/test_support.h"

namespace digg::data {
namespace {

namespace fs = std::filesystem;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("digg_snapshot_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path snap() const { return dir_ / "corpus.snap"; }

  fs::path dir_;
};

Corpus small_corpus(std::uint64_t seed = 1, std::size_t stories = 40) {
  stats::Rng rng(seed);
  SyntheticParams p;
  p.user_count = 1500;
  p.story_count = stories;
  p.vote_model.horizon = platform::kMinutesPerDay;
  p.vote_model.step = 2.0;
  return generate_corpus(p, rng).corpus;
}

std::vector<char> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good());
  std::vector<char> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void spew(const fs::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Same word-wise FNV-1a as the writer; needed to re-seal deliberately
// edited files so a test reaches the check *behind* the checksum.
std::uint64_t fnv1a(const char* data, std::size_t size,
                    std::uint64_t seed = 14695981039346656037ull) {
  std::uint64_t h = seed;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * 1099511628211ull;
  }
  if (i < size) {
    std::uint64_t w = 0;
    std::memcpy(&w, data + i, size - i);
    h = (h ^ w) * 1099511628211ull;
  }
  return h;
}

// Recomputes a v2 file's trailing header+table checksum (fnv over the 24-byte
// header chained into the table) after a deliberate edit.
void reseal_v2(std::vector<char>& bytes) {
  std::uint32_t count;
  std::uint64_t table_offset;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  std::memcpy(&table_offset, bytes.data() + 16, sizeof(table_offset));
  const std::size_t table_bytes = std::size_t{count} * 32;
  std::uint64_t sum = fnv1a(bytes.data(), 24);
  sum = fnv1a(bytes.data() + table_offset, table_bytes, sum);
  std::memcpy(bytes.data() + table_offset + table_bytes, &sum, sizeof(sum));
}

void expect_load_error(const fs::path& path, const std::string& needle) {
  try {
    (void)load_snapshot_mmap(path);
    FAIL() << "expected the loader to throw; wanted message containing '"
           << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
    // Every load error names the offending file.
    EXPECT_NE(std::string(e.what()).find(path.filename().string()),
              std::string::npos)
        << "actual message: " << e.what();
  }
}

// One decoded v2 section-table entry plus its own position in the file, so
// tests can surgically edit entries and bodies.
struct RawEntry {
  std::uint32_t type = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::size_t entry_pos = 0;  // byte position of this entry in the table
};

std::vector<RawEntry> read_table(const std::vector<char>& bytes) {
  std::uint32_t count;
  std::uint64_t table_offset;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  std::memcpy(&table_offset, bytes.data() + 16, sizeof(table_offset));
  std::vector<RawEntry> table(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RawEntry& e = table[i];
    e.entry_pos = static_cast<std::size_t>(table_offset) + i * 32;
    std::memcpy(&e.type, bytes.data() + e.entry_pos, 4);
    std::memcpy(&e.offset, bytes.data() + e.entry_pos + 8, 8);
    std::memcpy(&e.size, bytes.data() + e.entry_pos + 16, 8);
  }
  return table;
}

// Recomputes the checksum of `e` and the table seal after a deliberate edit
// of its body, so the file is checksum-consistent again.
void reseal_section(std::vector<char>& bytes, const RawEntry& e) {
  const std::uint64_t sum =
      fnv1a(bytes.data() + e.offset, static_cast<std::size_t>(e.size));
  std::memcpy(bytes.data() + e.entry_pos + 24, &sum, sizeof(sum));
  reseal_v2(bytes);
}

void expect_same_story(const Story& a, const Story& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.submitter, b.submitter);
  EXPECT_EQ(a.submitted_at, b.submitted_at);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.phase, b.phase);
  ASSERT_EQ(a.promoted(), b.promoted());
  if (a.promoted()) {
    EXPECT_EQ(*a.promoted_at, *b.promoted_at);
  }
  ASSERT_EQ(a.vote_count(), b.vote_count());
  // Deep equality including vote *order* (bitwise on times).
  EXPECT_TRUE(std::ranges::equal(a.voters(), b.voters()));
  EXPECT_TRUE(std::ranges::equal(a.times(), b.times()));
}

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  const Corpus original = small_corpus(42);
  save_snapshot(original, snap());
  const Corpus loaded = load_snapshot_mmap(snap());

  EXPECT_EQ(loaded.user_count(), original.user_count());
  EXPECT_EQ(loaded.network.edge_count(), original.network.edge_count());
  for (graph::NodeId u = 0; u < original.network.node_count(); ++u) {
    const auto fr_a = original.network.friends(u);
    const auto fr_b = loaded.network.friends(u);
    ASSERT_TRUE(std::equal(fr_a.begin(), fr_a.end(), fr_b.begin(), fr_b.end()));
    const auto fa_a = original.network.fans(u);
    const auto fa_b = loaded.network.fans(u);
    ASSERT_TRUE(std::equal(fa_a.begin(), fa_a.end(), fa_b.begin(), fa_b.end()));
  }

  ASSERT_EQ(loaded.front_page.size(), original.front_page.size());
  ASSERT_EQ(loaded.upcoming.size(), original.upcoming.size());
  for (std::size_t i = 0; i < original.front_page.size(); ++i)
    expect_same_story(original.front_page[i], loaded.front_page[i]);
  for (std::size_t i = 0; i < original.upcoming.size(); ++i)
    expect_same_story(original.upcoming[i], loaded.upcoming[i]);
  EXPECT_EQ(loaded.top_users, original.top_users);
  EXPECT_NO_THROW(validate(loaded));

  // Figures computed over the mapped columns are bit-identical.
  const core::Fig3aResult a = core::fig3a_influence(original);
  const core::Fig3aResult b = core::fig3a_influence(loaded);
  EXPECT_EQ(a.at_submission, b.at_submission);
  EXPECT_EQ(a.after_10, b.after_10);
  EXPECT_EQ(a.after_20, b.after_20);
  const auto fa = core::extract_features(original.front_page, original.network);
  const auto fb = core::extract_features(loaded.front_page, loaded.network);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].v10, fb[i].v10);
    EXPECT_EQ(fa[i].influence10, fb[i].influence10);
    EXPECT_EQ(fa[i].final_votes, fb[i].final_votes);
    EXPECT_EQ(fa[i].interesting, fb[i].interesting);
  }
}

TEST_F(SnapshotTest, RoundTripAcrossSeeds) {
  for (std::uint64_t seed : {2u, 3u, 4u}) {
    const Corpus original = small_corpus(seed);
    save_snapshot(original, snap());
    const Corpus loaded = load_snapshot_mmap(snap());
    ASSERT_EQ(loaded.story_count(), original.story_count());
    ASSERT_EQ(loaded.vote_store.total_votes(), original.vote_store.total_votes());
    for (std::size_t i = 0; i < original.front_page.size(); ++i)
      expect_same_story(original.front_page[i], loaded.front_page[i]);
    for (std::size_t i = 0; i < original.upcoming.size(); ++i)
      expect_same_story(original.upcoming[i], loaded.upcoming[i]);
  }
}

TEST_F(SnapshotTest, MissingFileThrows) {
  expect_load_error(dir_ / "nope.snap", "nope.snap");
}

TEST_F(SnapshotTest, TruncatedHeaderThrows) {
  spew(snap(), {'D', 'I', 'G', 'G', 'S', 'N'});
  expect_load_error(snap(), "truncated file (smaller than header)");
}

TEST_F(SnapshotTest, BadMagicThrows) {
  save_snapshot(small_corpus(), snap());
  auto bytes = slurp(snap());
  bytes[0] = 'X';
  spew(snap(), bytes);
  expect_load_error(snap(), "bad magic");
}

TEST_F(SnapshotTest, FutureVersionThrows) {
  // The retired version 1 is refused exactly like a future version.
  for (const std::uint32_t version : {kSnapshotVersion + 1, 1u}) {
    save_snapshot(small_corpus(), snap());
    auto bytes = slurp(snap());
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
    spew(snap(), bytes);
    expect_load_error(snap(), "unsupported version " + std::to_string(version));
  }
}

TEST_F(SnapshotTest, CutOffSectionTableThrows) {
  save_snapshot(small_corpus(), snap());
  auto bytes = slurp(snap());
  // Drop the trailing seal: the end-of-file table no longer adds up.
  bytes.resize(bytes.size() - sizeof(std::uint64_t));
  spew(snap(), bytes);
  expect_load_error(snap(), "truncated file (section table cut off)");
}

TEST_F(SnapshotTest, SectionOverrunThrows) {
  save_snapshot(small_corpus(), snap());
  auto bytes = slurp(snap());
  std::uint64_t table_offset;
  std::memcpy(&table_offset, bytes.data() + 16, sizeof(table_offset));
  // First table entry's size field (type 4 + flags 4 + offset 8 in).
  const std::uint64_t huge = ~0ull;
  std::memcpy(bytes.data() + table_offset + 16, &huge, sizeof(huge));
  spew(snap(), bytes);
  expect_load_error(snap(), "truncated file (section overruns)");
}

TEST_F(SnapshotTest, ByteReaderRejectsSizesNearMax) {
  // Regression: the in-bounds check must compare a requested length against
  // the *remaining* bytes. The old `pos + bytes > size` form wraps for
  // hostile lengths near SIZE_MAX and would admit a wild read.
  const char buf[16] = {};
  const std::size_t huge = SIZE_MAX - 4;
  snapfmt::ByteReader r(buf, sizeof(buf));
  (void)r.pod<std::uint64_t>();  // pos = 8, so pos + huge wraps small
  char sink[8];
  EXPECT_THROW(r.read_into(sink, huge), std::runtime_error);
  EXPECT_THROW((void)r.borrow(huge), std::runtime_error);
  // Element counts are bounded before the column is allocated.
  EXPECT_THROW((void)r.column<std::uint32_t>(huge), std::runtime_error);
  // The reader survives the rejected reads: the remaining 8 bytes are
  // still readable.
  EXPECT_EQ(r.pod<std::uint64_t>(), 0u);
}

TEST_F(SnapshotTest, ChecksumMismatchThrows) {
  save_snapshot(small_corpus(), snap());
  auto bytes = slurp(snap());
  bytes[bytes.size() - sizeof(std::uint64_t) - 1] ^= 0x5a;  // payload byte
  spew(snap(), bytes);
  expect_load_error(snap(), "checksum mismatch");
}

// Appends an entry of unknown type 99 to a saved snapshot's section table:
// an empty body parked at the table boundary, carrying `checksum`. The
// table sits at the end of the file, so no payload offset moves — bump the
// count, splice in a 32-byte entry, and re-seal.
void append_unknown_section(const fs::path& path, std::uint64_t checksum) {
  auto bytes = slurp(path);
  std::uint32_t count;
  std::uint64_t table_offset;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  std::memcpy(&table_offset, bytes.data() + 16, sizeof(table_offset));
  const std::uint32_t new_count = count + 1;
  std::memcpy(bytes.data() + 12, &new_count, sizeof(new_count));
  char entry[32] = {};
  const std::uint32_t type = 99;
  std::memcpy(entry, &type, sizeof(type));
  std::memcpy(entry + 8, &table_offset, sizeof(table_offset));
  std::memcpy(entry + 24, &checksum, sizeof(checksum));
  bytes.insert(bytes.end() - sizeof(std::uint64_t), entry, entry + 32);
  reseal_v2(bytes);
  spew(path, bytes);
}

TEST_F(SnapshotTest, UnknownSectionTypesAreIgnored) {
  // Forward compatibility: an unknown entry with a valid checksum (the fnv
  // basis, for zero bytes) loads.
  save_snapshot(small_corpus(), snap());
  append_unknown_section(snap(), fnv1a(nullptr, 0));
  EXPECT_EQ(load_snapshot_mmap(snap()).story_count(),
            small_corpus().story_count());
}

TEST_F(SnapshotTest, EagerLoadVerifiesUnknownSections) {
  // The loader verifies every section's checksum, including types it does
  // not parse.
  save_snapshot(small_corpus(), snap());
  append_unknown_section(snap(), fnv1a(nullptr, 0) + 1);
  expect_load_error(snap(), "checksum mismatch");
}

TEST_F(SnapshotTest, MmapCorruptVoteChunkThrows) {
  // A flipped byte inside a vote-chunk body leaves the header/table seal
  // intact; the per-section checksum must catch it.
  save_snapshot(small_corpus(), snap());
  auto bytes = slurp(snap());
  const auto table = read_table(bytes);
  const auto chunk = std::ranges::find_if(table, [](const RawEntry& e) {
    return e.type == snapfmt::kVotesUsers && e.size > 0;
  });
  ASSERT_NE(chunk, table.end());
  bytes[static_cast<std::size_t>(chunk->offset + chunk->size / 2)] ^= 0x5a;
  spew(snap(), bytes);
  expect_load_error(snap(), "checksum mismatch");
}

TEST_F(SnapshotTest, MmapTruncatedVoteChunkThrows) {
  // Shrink one time-column chunk and re-seal both its section checksum and
  // the table, so the file is checksum-clean but structurally short: the
  // user/time columns of the chunk no longer describe the same vote count.
  save_snapshot(small_corpus(), snap());
  auto bytes = slurp(snap());
  const auto table = read_table(bytes);
  const auto chunk = std::ranges::find_if(table, [](const RawEntry& e) {
    return e.type == snapfmt::kVotesTimes && e.size >= 16;
  });
  ASSERT_NE(chunk, table.end());
  const std::uint64_t short_size = chunk->size - 8;
  const std::uint64_t short_sum =
      fnv1a(bytes.data() + chunk->offset, static_cast<std::size_t>(short_size));
  std::memcpy(bytes.data() + chunk->entry_pos + 16, &short_size, 8);
  std::memcpy(bytes.data() + chunk->entry_pos + 24, &short_sum, 8);
  reseal_v2(bytes);
  spew(snap(), bytes);
  expect_load_error(snap(), "vote chunk size mismatch");
}

// Checksums cannot vouch for content (anyone who edits a file can recompute
// FNV-1a), so the loader validates what it maps. These files are
// checksum-consistent; the second vote of the file's first story is forged
// in its first vote chunk.
class ForgedVoteTest : public SnapshotTest {
 protected:
  template <typename T>
  void forge_second_vote(std::uint32_t section, T value) {
    ASSERT_GE(first_story().vote_count(), 2u);
    save_snapshot(original_, snap());
    auto bytes = slurp(snap());
    const auto table = read_table(bytes);
    const auto chunk = std::ranges::find(table, section, &RawEntry::type);
    ASSERT_NE(chunk, table.end());
    std::memcpy(bytes.data() + chunk->offset + sizeof(T), &value, sizeof(T));
    reseal_section(bytes, *chunk);
    spew(snap(), bytes);
  }
  // save_snapshot writes the front page first.
  const Story& first_story() const {
    return original_.front_page.empty() ? original_.upcoming.at(0)
                                        : original_.front_page[0];
  }
  std::string first_story_name() const {
    return std::string(original_.front_page.empty() ? "upcoming"
                                                    : "front-page") +
           " story " + std::to_string(first_story().id);
  }

  const Corpus original_ = small_corpus();
};

TEST_F(ForgedVoteTest, VoterOutsideTheNetworkThrows) {
  forge_second_vote<UserId>(snapfmt::kVotesUsers, 4294967040u);
  ASSERT_FALSE(HasFatalFailure());
  expect_load_error(snap(), first_story_name() + ": voter outside the network");
}

TEST_F(ForgedVoteTest, NanVoteTimeThrows) {
  forge_second_vote(snapfmt::kVotesTimes,
                    std::numeric_limits<platform::Minutes>::quiet_NaN());
  ASSERT_FALSE(HasFatalFailure());
  expect_load_error(snap(), first_story_name() + ": non-finite vote time");
}

TEST_F(SnapshotTest, DuplicateStoryIdThrows) {
  graph::DigraphBuilder builder(3);
  builder.add_follow(0, 1);
  Corpus twice;
  twice.network = builder.build();
  for (const UserId submitter : {0u, 2u}) {
    platform::Story s = platform::make_story(7, submitter, 10.0, 0.5);
    test::add_vote(s, 1, 11.0);
    twice.add_story(s, Corpus::Section::kUpcoming);
  }
  save_snapshot(twice, snap());
  expect_load_error(snap(), "duplicate story id 7");
}

TEST_F(SnapshotTest, InCsrThatIsNotTheTransposeThrows) {
  // Lower the first source of one in-row and re-seal: every row stays
  // sorted and in range, and every in-degree still matches, but the fan
  // rows no longer describe the same relation as the friend rows.
  save_snapshot(small_corpus(), snap());
  auto bytes = slurp(snap());
  const auto table = read_table(bytes);
  const auto net = std::ranges::find_if(table, [](const RawEntry& e) {
    return e.type == snapfmt::kNetwork;
  });
  ASSERT_NE(net, table.end());
  char* body = bytes.data() + net->offset;
  std::uint64_t n = 0;
  std::uint64_t e = 0;
  std::memcpy(&n, body, 8);
  std::memcpy(&e, body + 8, 8);
  // u64 n, u64 e, out_offsets u64[n+1], out_targets u32[e], pad to 8,
  // in_offsets u64[n+1], in_sources u32[e].
  const std::size_t in_offsets_pos =
      (16 + (n + 1) * 8 + e * 4 + 7) / 8 * 8;
  const std::size_t in_sources_pos = in_offsets_pos + (n + 1) * 8;
  bool forged = false;
  for (std::uint64_t v = 0; v < n && !forged; ++v) {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::memcpy(&lo, body + in_offsets_pos + v * 8, 8);
    std::memcpy(&hi, body + in_offsets_pos + (v + 1) * 8, 8);
    if (lo == hi) continue;
    std::uint32_t first = 0;
    std::memcpy(&first, body + in_sources_pos + lo * 4, 4);
    if (first == 0) continue;
    --first;
    std::memcpy(body + in_sources_pos + lo * 4, &first, 4);
    forged = true;
  }
  ASSERT_TRUE(forged);
  reseal_section(bytes, *net);
  spew(snap(), bytes);
  expect_load_error(snap(), "in-CSR is not the transpose of out-CSR");
}

TEST_F(SnapshotTest, MmapSurvivesCopyAndSourceRelease) {
  // The mapping must stay alive in the corpus a loaded one was moved into,
  // after the loaded one is gone (the backing moves with it). Corpus is
  // move-only, so a move is the only way to hand a mapped corpus on.
  save_snapshot(small_corpus(), snap());
  Corpus kept;
  {
    Corpus mapped = load_snapshot_mmap(snap());
    kept = std::move(mapped);
  }
  fs::remove(snap());  // mapping survives unlinking on POSIX
  EXPECT_NO_THROW(validate(kept));
  EXPECT_GT(kept.vote_store.total_votes(), 0u);
}

// Saving over a snapshot that a live corpus has mapped must not touch the
// mapped bytes. Writing the new file in place would truncate the mapped
// inode, and reading the first corpus's votes past the new end would die
// of SIGBUS.
TEST_F(SnapshotTest, SavingOverAMappedSnapshotLeavesTheMappingIntact) {
  const Corpus bigger = small_corpus(11);
  const Corpus smaller = small_corpus(12, 10);

  save_snapshot(bigger, snap(), /*chunk_target_bytes=*/4096);
  const auto bigger_bytes = fs::file_size(snap());
  const Corpus mapped = load_snapshot_mmap(snap());
  save_snapshot(smaller, snap(), /*chunk_target_bytes=*/4096);
  ASSERT_LT(fs::file_size(snap()), bigger_bytes);

  ASSERT_EQ(mapped.story_count(), bigger.story_count());
  for (std::size_t i = 0; i < bigger.front_page.size(); ++i)
    expect_same_story(bigger.front_page[i], mapped.front_page[i]);
  for (std::size_t i = 0; i < bigger.upcoming.size(); ++i)
    expect_same_story(bigger.upcoming[i], mapped.upcoming[i]);
  EXPECT_EQ(load_snapshot_mmap(snap()).story_count(), smaller.story_count());
}

// A writer dropped before finish() (an exception mid-save) leaves the
// previous file byte for byte and no temporary behind.
TEST_F(SnapshotTest, UnfinishedWriterLeavesThePreviousFile) {
  save_snapshot(small_corpus(), snap());
  const std::vector<char> before = slurp(snap());
  {
    snapfmt::SectionFileWriter w(snap());
    const std::vector<char> body(64, 'x');
    w.add(snapfmt::kModelInfo, body);
  }
  EXPECT_EQ(slurp(snap()), before);
  EXPECT_FALSE(fs::exists(snap().string() + ".tmp"));
  EXPECT_EQ(std::vector<fs::path>(fs::directory_iterator(dir_), {}),
            std::vector<fs::path>{snap()});
}

TEST_F(SnapshotTest, MultiChunkRoundTrip) {
  // A tiny chunk target forces many VOTES_USERS/VOTES_TIMES sections; the
  // loader must reassemble them into the identical corpus.
  const Corpus original = small_corpus(5);
  save_snapshot(original, snap(), /*chunk_target_bytes=*/512);
  const auto table = read_table(slurp(snap()));
  const auto chunks = std::ranges::count_if(table, [](const RawEntry& e) {
    return e.type == snapfmt::kVotesUsers;
  });
  EXPECT_GT(chunks, 4) << "chunk target did not split the vote columns";

  const Corpus loaded = load_snapshot_mmap(snap());
  ASSERT_EQ(loaded.story_count(), original.story_count());
  ASSERT_EQ(loaded.vote_store.total_votes(), original.vote_store.total_votes());
  for (std::size_t i = 0; i < original.front_page.size(); ++i)
    expect_same_story(original.front_page[i], loaded.front_page[i]);
  for (std::size_t i = 0; i < original.upcoming.size(); ++i)
    expect_same_story(original.upcoming[i], loaded.upcoming[i]);
}

// The acceptance gate for the whole storage layer: one experiment run
// through a CSV-loaded corpus and a snapshot-loaded corpus must agree on
// every value.
TEST_F(SnapshotTest, ExperimentIdenticalAcrossCsvAndSnapshot) {
  const Corpus original = small_corpus(7);
  save_corpus(original, dir_ / "csv");
  save_snapshot(original, snap());
  const Corpus from_csv = load_corpus(dir_ / "csv");
  const Corpus from_snap = load_snapshot_mmap(snap());

  const core::Fig3aResult a = core::fig3a_influence(from_csv);
  const core::Fig3aResult b = core::fig3a_influence(from_snap);
  EXPECT_EQ(a.at_submission, b.at_submission);
  EXPECT_EQ(a.after_10, b.after_10);
  EXPECT_EQ(a.after_20, b.after_20);
  EXPECT_EQ(a.fraction_submitters_under_10_fans,
            b.fraction_submitters_under_10_fans);
  EXPECT_EQ(a.fraction_visible_to_200_after_10,
            b.fraction_visible_to_200_after_10);

  // Feature extraction (the §5 pipeline input) must agree field by field.
  const auto fa = core::extract_features(from_csv.front_page, from_csv.network);
  const auto fb =
      core::extract_features(from_snap.front_page, from_snap.network);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].story, fb[i].story);
    EXPECT_EQ(fa[i].submitter, fb[i].submitter);
    EXPECT_EQ(fa[i].v6, fb[i].v6);
    EXPECT_EQ(fa[i].v10, fb[i].v10);
    EXPECT_EQ(fa[i].v20, fb[i].v20);
    EXPECT_EQ(fa[i].fans1, fb[i].fans1);
    EXPECT_EQ(fa[i].influence10, fb[i].influence10);
    EXPECT_EQ(fa[i].final_votes, fb[i].final_votes);
    EXPECT_EQ(fa[i].interesting, fb[i].interesting);
  }

  // Vote-time-dependent values too: CSV stores round-trip-exact doubles.
  for (std::size_t i = 0; i < from_csv.front_page.size(); ++i) {
    const auto ta = core::vote_timeseries(from_csv.front_page[i]);
    const auto tb = core::vote_timeseries(from_snap.front_page[i]);
    EXPECT_EQ(ta.times(), tb.times());
    EXPECT_EQ(ta.values(), tb.values());
  }
}

// --- MODELINFO section ---------------------------------------------------

TEST_F(SnapshotTest, ModelIdRoundTrips) {
  Corpus original = small_corpus(4);
  original.model_id = dynamics::kStochasticModelId;
  save_snapshot(original, snap());
  EXPECT_EQ(load_snapshot_mmap(snap()).model_id,
            dynamics::kStochasticModelId);
}

TEST_F(SnapshotTest, UnknownModelIdIsALoadError) {
  // The id is validated against the registry at load time: analysing a
  // corpus under the wrong generative assumptions must be loud, not a
  // silent fallback.
  Corpus original = small_corpus(4);
  original.model_id = "model-from-the-future";
  save_snapshot(original, snap());
  expect_load_error(snap(), "unknown generative model id 'model-from-the-future'");
}

TEST_F(SnapshotTest, HostileModelInfoLengthIsATruncatedFile) {
  // A checksum-clean MODELINFO whose length runs past its section must fail
  // the bounds check before anything is sized from the length: sized first,
  // 2^44 throws std::bad_alloc and 2^64-1 std::length_error, both outside
  // the loaders' std::runtime_error contract.
  save_snapshot(small_corpus(4), snap());
  const std::vector<char> pristine = slurp(snap());
  const auto table = read_table(pristine);
  const auto info = std::ranges::find_if(table, [](const RawEntry& e) {
    return e.type == snapfmt::kModelInfo;
  });
  ASSERT_NE(info, table.end());
  for (const std::uint64_t len :
       {std::uint64_t{100}, std::uint64_t{1} << 44, ~std::uint64_t{0}}) {
    SCOPED_TRACE("length " + std::to_string(len));
    std::vector<char> bytes = pristine;
    const auto body = static_cast<std::size_t>(info->offset);
    std::memcpy(bytes.data() + body, &len, sizeof(len));
    reseal_section(bytes, *info);
    spew(snap(), bytes);
    expect_load_error(snap(), "truncated file (section overruns payload)");
  }
}

TEST_F(SnapshotTest, FilesWithoutModelInfoDefaultToLegacy) {
  // Files written without the section (write_model_id is optional) mean
  // "the original two-mechanism model".
  const Corpus original = small_corpus(4);
  {
    SnapshotWriter writer(snap());
    writer.write_network(original.network);
    for (const auto* section : {&original.front_page, &original.upcoming})
      for (const Story& s : *section) writer.add_votes(s.voters(), s.times());
    for (const auto* section : {&original.front_page, &original.upcoming})
      for (const Story& s : *section) writer.add_story(s);
    writer.write_top_users(original.top_users);
    writer.finish();
  }
  const auto table = read_table(slurp(snap()));
  ASSERT_TRUE(std::ranges::none_of(table, [](const RawEntry& e) {
    return e.type == snapfmt::kModelInfo;
  }));
  EXPECT_EQ(load_snapshot_mmap(snap()).model_id, dynamics::kLegacyModelId);
}

TEST_F(SnapshotTest, GeneratedSnapshotsRecordTheGeneratingModel) {
  SyntheticParams p;
  p.user_count = 1500;
  p.story_count = 40;
  p.model_id = dynamics::kStochasticModelId;
  p.stochastic.step = 4.0;
  p.stochastic.horizon = platform::kMinutesPerDay;
  stats::Rng rng(9);
  (void)generate_corpus_to_snapshot(p, rng, snap());
  EXPECT_EQ(load_snapshot_mmap(snap()).model_id,
            dynamics::kStochasticModelId);
}

}  // namespace
}  // namespace digg::data
