#include "src/stream/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/prefix_visibility.h"
#include "src/data/snapshot.h"
#include "src/data/snapshot_format.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/runtime/thread_pool.h"
#include "src/stream/checkpoint.h"
#include "src/stream/source.h"

namespace digg::stream {
namespace {

namespace snapfmt = data::snapfmt;

class ThreadGuard {
 public:
  explicit ThreadGuard(unsigned threads) {
    runtime::set_default_threads(threads);
  }
  ~ThreadGuard() { runtime::set_default_threads(0); }
};

// The runtime_test corpus: large enough that the front page carries both
// label classes, small enough to generate in well under a second.
const data::SyntheticCorpus& small_corpus() {
  static const data::SyntheticCorpus c = [] {
    stats::Rng rng(42);
    data::SyntheticParams params;
    params.user_count = 40000;
    params.story_count = 400;
    params.vote_model.step = 2.0;
    return data::generate_corpus(params, rng);
  }();
  return c;
}

const EventStream& small_stream() {
  static const EventStream s = build_event_stream(small_corpus().corpus);
  return s;
}

void expect_same_outcome(const StoryOutcome& a, const StoryOutcome& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.submitter, b.submitter);
  EXPECT_EQ(a.cascade, b.cascade);
  EXPECT_EQ(a.influence, b.influence);
  EXPECT_EQ(a.fans1, b.fans1);
  EXPECT_EQ(a.final_votes, b.final_votes);
  EXPECT_EQ(a.interesting, b.interesting);
  EXPECT_EQ(a.predicted_interesting, b.predicted_interesting);
  EXPECT_EQ(a.bayes_interesting, b.bayes_interesting);
  EXPECT_EQ(a.bayes_expected_final, b.bayes_expected_final);
  EXPECT_EQ(a.promoted_time, b.promoted_time);
}

void expect_same_result(const StreamResult& a, const StreamResult& b) {
  EXPECT_EQ(a.events_applied, b.events_applied);
  ASSERT_EQ(a.stories.size(), b.stories.size());
  for (std::size_t i = 0; i < a.stories.size(); ++i) {
    SCOPED_TRACE("story slot " + std::to_string(i));
    expect_same_outcome(a.stories[i], b.stories[i]);
  }
}

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("digg_stream_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::filesystem::path file(const std::string& name) const {
    return dir_ / name;
  }

  std::filesystem::path dir_;
};

std::vector<char> slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spew(const std::filesystem::path& p, const std::vector<char>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Every vote of small_stream() as a (time, slot) key, in the engine's
/// global (time, slot, index) order: stable_sort keeps one story's
/// equal-time votes in index order.
std::vector<std::pair<double, std::uint32_t>> global_order() {
  std::vector<std::pair<double, std::uint32_t>> keys;
  for (std::uint32_t slot = 0; slot < small_stream().stories.size(); ++slot)
    for (const double t : small_stream().stories[slot].times())
      keys.emplace_back(t, slot);
  std::stable_sort(keys.begin(), keys.end());
  return keys;
}

/// Feeds events [begin, end) of small_stream() to a live engine in
/// story-major order (story 0's votes, then story 1's, ...), so story slots
/// match the stream's and a cut can fall mid-story.
void feed_live(StreamEngine& live, std::uint64_t begin, std::uint64_t end) {
  std::uint64_t n = 0;
  for (std::uint32_t slot = 0; slot < small_stream().stories.size(); ++slot) {
    const platform::StoryView& s = small_stream().stories[slot];
    for (std::size_t k = 0; k < s.vote_count(); ++k, ++n) {
      if (n < begin || n >= end) continue;
      if (k == 0)
        live.live_submit(s.id, s.submitter, s.times()[0]);
      else
        live.live_vote(slot, s.voters()[k], s.times()[k]);
    }
  }
  live.note_events_applied(end - begin);
}

// ------------------------------------------------ stream construction ----

TEST(EventStreamTest, StoryTableAndTotalMatchCorpus) {
  const EventStream& s = small_stream();
  EXPECT_EQ(s.stories.size(), small_corpus().corpus.story_count());
  std::uint64_t votes = 0;
  for (const platform::StoryView& sv : s.stories) {
    votes += sv.vote_count();
    // The replay order leans on per-story time columns being sorted.
    const auto times = sv.times();
    for (std::size_t k = 1; k < times.size(); ++k)
      EXPECT_GE(times[k], times[k - 1]);
  }
  ASSERT_GT(votes, 0u);
  EXPECT_EQ(s.total_events(), votes);
}

TEST(EventStreamTest, EngineRejectsTamperedStreams) {
  const auto& corpus = small_corpus().corpus;
  {
    // Cached event total disagreeing with the vote columns.
    EventStream broken = build_event_stream(corpus);
    broken.total -= 1;
    EXPECT_THROW(StreamEngine(broken, corpus.network), std::invalid_argument);
  }
  {
    // A story whose time column is not sorted: no merge order exists.
    platform::Story story;
    story.id = 0;
    story.submitter = 0;
    story.voters = {0, 1};
    story.times = {5.0, 1.0};
    const std::vector<platform::StoryView> stories = {story};
    const EventStream broken = build_event_stream(stories);
    EXPECT_THROW(StreamEngine(broken, corpus.network), std::invalid_argument);
  }
  {
    // A NaN vote time compares false both ways, so it passes a plain order
    // check and leaves the replay order undefined: refused up front, like
    // an infinite one.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      platform::Story first;
      first.id = 0;
      first.submitter = 0;
      first.voters = {0, 1};
      first.times = {0.0, bad};
      platform::Story second;
      second.id = 1;
      second.submitter = 2;
      second.voters = {2};
      second.times = {3.0};
      const std::vector<platform::StoryView> stories = {first, second};
      const EventStream broken = build_event_stream(stories);
      EXPECT_THROW(StreamEngine(broken, corpus.network), std::invalid_argument)
          << "vote time " << bad;
    }
  }
  {
    // A submitter outside the graph.
    platform::Story story;
    story.id = 0;
    story.submitter =
        static_cast<platform::UserId>(corpus.network.node_count());
    story.voters = {story.submitter};
    story.times = {0.0};
    const std::vector<platform::StoryView> stories = {story};
    const EventStream broken = build_event_stream(stories);
    EXPECT_THROW(StreamEngine(broken, corpus.network), std::invalid_argument);
  }
}

TEST(EventStreamTest, PrefixCutMatchesBruteForceOrder) {
  // Equal times across stories, a single-vote story, and -0.0 next to
  // +0.0 (equal times, so slot order decides, whichever sign comes first).
  std::vector<std::vector<std::vector<double>>> streams = {{
      {-0.0, 0.0, 2.0, 2.0, 5.0},
      {0.0, -0.0, 2.0, 3.0},
      {2.0},
      {-1.5, 0.0, 2.0, 2.0, 2.0, 7.0},
      {-0.0, 5.0},
  }};
  // Random streams with heavy ties across and within stories, both zero
  // signs and negative times, so the bisection's per-story brackets close
  // at different probes.
  stats::Rng rng(2024);
  const double palette[] = {-3.0, -1.5, -0.0, 0.0, 0.5, 1.0, 2.0, 2.0, 7.5};
  for (int round = 0; round < 4; ++round) {
    std::vector<std::vector<double>>& columns = streams.emplace_back();
    columns.resize(static_cast<std::size_t>(rng.uniform_int(5, 24)));
    for (std::vector<double>& column : columns) {
      column.resize(static_cast<std::size_t>(rng.uniform_int(1, 12)));
      for (double& t : column)
        t = palette[rng.uniform_int(
            0, static_cast<std::int64_t>(std::size(palette)) - 1)];
      // Sorted with -0.0 and 0.0 in whatever order they were drawn.
      std::stable_sort(column.begin(), column.end());
    }
  }
  const graph::Digraph& network = small_corpus().corpus.network;

  for (const std::vector<std::vector<double>>& columns : streams) {
    SCOPED_TRACE("stream of " + std::to_string(columns.size()) + " stories");
    std::vector<platform::Story> owned;
    platform::UserId next_voter = 0;
    for (std::size_t slot = 0; slot < columns.size(); ++slot) {
      platform::Story story;
      story.id = static_cast<platform::StoryId>(slot);
      story.submitter = next_voter;
      story.times = columns[slot];
      for (std::size_t k = 0; k < columns[slot].size(); ++k)
        story.voters.push_back(next_voter++);
      owned.push_back(std::move(story));
    }
    const std::vector<platform::StoryView> views(owned.begin(), owned.end());
    const EventStream stream = build_event_stream(views);

    // Every vote's (time, slot, index) key, fully sorted.
    using Key = std::tuple<double, std::uint32_t, std::uint32_t>;
    std::vector<Key> keys;
    for (std::uint32_t slot = 0; slot < columns.size(); ++slot)
      for (std::uint32_t k = 0; k < columns[slot].size(); ++k)
        keys.emplace_back(columns[slot][k], slot, k);
    std::sort(keys.begin(), keys.end());
    ASSERT_EQ(keys.size(), stream.total_events());

    const auto expect_cut = [&](const StreamEngine& engine,
                                std::uint64_t limit) {
      std::vector<std::size_t> want(columns.size(), 0);
      for (std::uint64_t i = 0; i < limit; ++i) ++want[std::get<1>(keys[i])];
      EXPECT_EQ(engine.events_applied(), limit);
      for (std::uint32_t slot = 0; slot < columns.size(); ++slot)
        EXPECT_EQ(engine.query_story(slot).final_votes, want[slot])
            << "slot " << slot << " at limit " << limit;
    };
    StreamEngine stepping(stream, network);
    for (std::uint64_t limit = 0; limit <= keys.size(); ++limit) {
      SCOPED_TRACE("limit " + std::to_string(limit));
      StreamEngine fresh(stream, network);
      fresh.run_until(limit);
      expect_cut(fresh, limit);
      StreamEngine halved(stream, network);
      halved.run_until(limit / 2);
      halved.run_until(limit);
      expect_cut(halved, limit);
      stepping.run_until(limit);
      expect_cut(stepping, limit);
    }
  }
}

// The engine trusts build_event_stream's validation only for the table it
// built: an edited copy, or a table assembled by hand, is refused rather
// than re-validated.
TEST(EventStreamTest, EngineRefusesATableNotBuiltByTheStream) {
  const auto& corpus = small_corpus().corpus;
  {
    EventStream edited = small_stream();
    std::swap(edited.stories[0], edited.stories[1]);
    EXPECT_THROW(StreamEngine(edited, corpus.network), std::invalid_argument);
  }
  {
    EventStream edited = small_stream();
    platform::Story story;
    story.id = edited.stories[0].id;
    story.submitter = edited.stories[0].submitter;
    story.voters.assign(edited.stories[0].voters().begin(),
                        edited.stories[0].voters().end());
    story.times.assign(edited.stories[0].times().begin(),
                       edited.stories[0].times().end());
    // Same ids, counts and contents; other column storage.
    edited.stories[0] = story;
    EXPECT_THROW(StreamEngine(edited, corpus.network), std::invalid_argument);
  }
  {
    EventStream by_hand;
    by_hand.stories = small_stream().stories;
    by_hand.total = small_stream().total;
    by_hand.identity = small_stream().identity;
    EXPECT_THROW(StreamEngine(by_hand, corpus.network), std::invalid_argument);
  }
  // A copy of the built table is the same table.
  const EventStream copy = small_stream();
  StreamEngine engine(copy, corpus.network);
  EXPECT_EQ(engine.fingerprint(),
            StreamEngine(small_stream(), corpus.network).fingerprint());
  // The empty stream, built, is accepted; default-constructed, it is not.
  EXPECT_NO_THROW(StreamEngine(
      build_event_stream(std::span<const platform::StoryView>{}),
      corpus.network));
  EXPECT_THROW(StreamEngine(EventStream{}, corpus.network),
               std::invalid_argument);
}

// ------------------------------------------- batch/stream bit-identity ---

TEST(EquivalenceTest, FeaturesMatchBatchExtractionExactly) {
  const auto& corpus = small_corpus().corpus;
  StreamEngine engine(small_stream(), corpus.network);
  engine.run_all();
  const StreamResult result = engine.result();
  ASSERT_EQ(result.stories.size(), corpus.story_count());

  const std::vector<core::StoryFeatures> rows = to_story_features(result);
  const std::vector<core::StoryFeatures> batch_fp =
      core::extract_features(corpus.front_page, corpus.network);
  const std::vector<core::StoryFeatures> batch_up =
      core::extract_features(corpus.upcoming, corpus.network);
  ASSERT_EQ(rows.size(), batch_fp.size() + batch_up.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("story slot " + std::to_string(i));
    const core::StoryFeatures& b =
        i < batch_fp.size() ? batch_fp[i] : batch_up[i - batch_fp.size()];
    EXPECT_EQ(rows[i].story, b.story);
    EXPECT_EQ(rows[i].submitter, b.submitter);
    EXPECT_EQ(rows[i].v6, b.v6);
    EXPECT_EQ(rows[i].v10, b.v10);
    EXPECT_EQ(rows[i].v20, b.v20);
    EXPECT_EQ(rows[i].fans1, b.fans1);
    EXPECT_EQ(rows[i].influence10, b.influence10);
    EXPECT_EQ(rows[i].final_votes, b.final_votes);
    EXPECT_EQ(rows[i].interesting, b.interesting);
  }
}

TEST(EquivalenceTest, Fig3aInfluenceMatchesBatch) {
  const auto& corpus = small_corpus().corpus;
  const core::Fig3aResult batch = core::fig3a_influence(corpus);
  StreamEngine engine(small_stream(), corpus.network);
  engine.run_all();
  const StreamResult result = engine.result();
  // Stream slots [0, front_page.size()) are the front-page stories and the
  // default influence checkpoints {1, 11, 21} are exactly fig3a's.
  ASSERT_EQ(batch.at_submission.size(), corpus.front_page.size());
  for (std::size_t i = 0; i < corpus.front_page.size(); ++i) {
    SCOPED_TRACE("front-page story " + std::to_string(i));
    ASSERT_EQ(result.stories[i].influence.size(), 3u);
    EXPECT_EQ(result.stories[i].influence[0], batch.at_submission[i]);
    EXPECT_EQ(result.stories[i].influence[1], batch.after_10[i]);
    EXPECT_EQ(result.stories[i].influence[2], batch.after_20[i]);
  }
}

TEST(EquivalenceTest, Fig4MatchesBatchThroughSharedGrouping) {
  const auto& corpus = small_corpus().corpus;
  const core::Fig4Result batch = core::fig4_innetwork_vs_final(corpus);
  StreamEngine engine(small_stream(), corpus.network);
  engine.run_all();
  std::vector<core::StoryFeatures> rows = to_story_features(engine.result());
  rows.resize(corpus.front_page.size());  // fig4 is a front-page artifact
  const core::Fig4Result ours = core::fig4_from_features(rows);
  EXPECT_EQ(ours.spearman_v10_final, batch.spearman_v10_final);
  ASSERT_EQ(ours.after_10.size(), batch.after_10.size());
  for (std::size_t g = 0; g < ours.after_10.size(); ++g) {
    EXPECT_EQ(ours.after_10[g].in_network_votes,
              batch.after_10[g].in_network_votes);
    EXPECT_EQ(ours.after_10[g].final_votes.n, batch.after_10[g].final_votes.n);
    EXPECT_EQ(ours.after_10[g].final_votes.median,
              batch.after_10[g].final_votes.median);
  }
}

// --------------------------------------------------------- determinism ---

// Checked twice: with the engine's defaults, and with a trained predictor
// and the Bayes fit enabled, so the C4.5 and Bayes hooks are under the
// thread-count identity too.
TEST(DeterminismTest, BitIdenticalAcrossThreadCounts) {
  const auto& corpus = small_corpus().corpus;
  const core::InterestingnessPredictor predictor =
      core::InterestingnessPredictor::train(
          core::extract_features(corpus.front_page, corpus.network));
  StreamParams hooks;
  hooks.predictor = &predictor;
  hooks.bayes.enabled = true;
  for (const StreamParams& params : {StreamParams{}, hooks}) {
    SCOPED_TRACE(params.predictor ? "predictor + bayes" : "defaults");
    auto run = [&](unsigned threads) {
      ThreadGuard guard(threads);
      StreamEngine engine(small_stream(), corpus.network, params);
      engine.run_all();
      return engine.result();
    };
    const StreamResult t1 = run(1);
    const StreamResult t2 = run(2);
    const StreamResult t8 = run(8);
    expect_same_result(t1, t2);
    expect_same_result(t1, t8);
    if (params.predictor != nullptr) {
      // Both hooks must actually fire, or the identity checks nothing.
      EXPECT_TRUE(std::any_of(
          t1.stories.begin(), t1.stories.end(), [](const StoryOutcome& o) {
            return o.predicted_interesting && o.bayes_interesting;
          }));
    }
  }
}

TEST(DeterminismTest, IncrementalRunsMatchOneShot) {
  const auto& corpus = small_corpus().corpus;
  StreamEngine oneshot(small_stream(), corpus.network);
  oneshot.run_all();
  StreamEngine stepped(small_stream(), corpus.network);
  const std::uint64_t total = stepped.total_events();
  stepped.run_until(total / 4);
  EXPECT_EQ(stepped.events_applied(), total / 4);
  stepped.run_until(total / 4);  // no-op: the stream cannot rewind
  EXPECT_EQ(stepped.events_applied(), total / 4);
  stepped.run_until(3 * total / 4);
  stepped.run_all();
  expect_same_result(oneshot.result(), stepped.result());
}

// -------------------------------------------------------- online hooks ---

TEST(OnlineHooksTest, PredictionAndPromotionFireAtTheRightVote) {
  const auto& corpus = small_corpus().corpus;
  const std::vector<core::StoryFeatures> batch_fp =
      core::extract_features(corpus.front_page, corpus.network);
  const core::InterestingnessPredictor predictor =
      core::InterestingnessPredictor::train(batch_fp);

  StreamParams params;
  params.predictor = &predictor;
  StreamEngine engine(small_stream(), corpus.network, params);
  engine.run_all();
  const StreamResult result = engine.result();

  const std::vector<core::StoryFeatures> batch_up =
      core::extract_features(corpus.upcoming, corpus.network);
  std::size_t fired = 0;
  for (std::size_t i = 0; i < result.stories.size(); ++i) {
    SCOPED_TRACE("story slot " + std::to_string(i));
    const StoryOutcome& o = result.stories[i];
    const core::StoryFeatures& b = i < batch_fp.size()
                                       ? batch_fp[i]
                                       : batch_up[i - batch_fp.size()];
    // The online verdict exists iff the story reached ten non-submitter
    // votes, and then matches the batch predictor on the batch features.
    if (o.final_votes >= 11) {
      ASSERT_TRUE(o.predicted_interesting.has_value());
      EXPECT_EQ(*o.predicted_interesting, predictor.predict(b));
      ++fired;
    } else {
      EXPECT_FALSE(o.predicted_interesting.has_value());
    }
    // The promotion hook records the exact arrival time of vote 43.
    const platform::StoryView& sv = small_stream().stories[i];
    if (sv.vote_count() >= 43) {
      ASSERT_TRUE(o.promoted_time.has_value());
      EXPECT_EQ(*o.promoted_time, sv.times()[42]);
    } else {
      EXPECT_FALSE(o.promoted_time.has_value());
    }
  }
  EXPECT_GT(fired, 0u);
}

// -------------------------------------------------- checkpoint/restore ---

TEST_F(StreamTest, CheckpointRoundTripReproducesFinalState) {
  const auto& corpus = small_corpus().corpus;
  StreamEngine oneshot(small_stream(), corpus.network);
  oneshot.run_all();

  StreamEngine writer(small_stream(), corpus.network);
  const std::uint64_t cut = writer.total_events() / 3;
  writer.run_until(cut);
  const auto path = file("mid.ckpt");
  writer.save_checkpoint(path);

  const CheckpointInfo info = read_checkpoint_info(path);
  EXPECT_EQ(info.version, kStreamCheckpointVersion);
  EXPECT_EQ(info.fingerprint, writer.fingerprint());
  EXPECT_EQ(info.events_applied, cut);
  EXPECT_EQ(info.total_events, writer.total_events());
  EXPECT_EQ(info.story_count, corpus.story_count());

  // A fresh engine restores the kill point and finishes the stream; a
  // different thread count on the resumed half must not matter either.
  ThreadGuard guard(2);
  StreamEngine resumed(small_stream(), corpus.network);
  resumed.restore_checkpoint(path);
  EXPECT_EQ(resumed.events_applied(), cut);
  resumed.run_all();
  expect_same_result(oneshot.result(), resumed.result());
}

// The serialized checkpoint must not depend on the in-memory visibility
// representation or residency: an engine killed mid-stream and resumed on a
// fresh process writes a final checkpoint byte-for-byte identical to an
// uninterrupted run's (visibility sets are rebuilt lazily, never persisted,
// so eviction/promotion history cannot leak into the file).
TEST_F(StreamTest, CheckpointBytesIdenticalAcrossKillAndResume) {
  const auto& corpus = small_corpus().corpus;
  StreamEngine oneshot(small_stream(), corpus.network);
  oneshot.run_all();
  const auto straight = file("straight.ckpt");
  oneshot.save_checkpoint(straight);

  StreamEngine writer(small_stream(), corpus.network);
  writer.run_until(writer.total_events() / 3);
  const auto mid = file("mid.ckpt");
  writer.save_checkpoint(mid);

  StreamEngine resumed(small_stream(), corpus.network);
  resumed.restore_checkpoint(mid);
  resumed.run_all();
  const auto rejoined = file("rejoined.ckpt");
  resumed.save_checkpoint(rejoined);

  EXPECT_EQ(slurp(straight), slurp(rejoined));
  expect_same_result(oneshot.result(), resumed.result());
}

// Replay makes one prefix pass per story slice that starts below the
// horizon and reads flags and curve from it vote by vote, then adds the
// rest of the slice. Single-event steps put a slice boundary on every vote,
// the checkpoint votes and the promotion vote included, so every slice
// shape the pass must handle meets a one-shot run's result and bytes.
TEST_F(StreamTest, SingleEventStepsMatchOneShot) {
  const auto& corpus = small_corpus().corpus;
  const core::InterestingnessPredictor predictor =
      core::InterestingnessPredictor::train(
          core::extract_features(corpus.front_page, corpus.network));
  StreamParams params;
  params.predictor = &predictor;
  params.bayes.enabled = true;
  const obs::Counter& passes =
      obs::Registry::global().counter("stream.prefix_passes");

  StreamEngine oneshot(small_stream(), corpus.network, params);
  const std::uint64_t passes_before = passes.value();
  oneshot.run_all();
  // One pass per story: every story's only slice starts at vote 0.
  EXPECT_EQ(passes.value() - passes_before, small_stream().stories.size());
  const auto straight = file("straight.ckpt");
  oneshot.save_checkpoint(straight);

  // Step until some slice has ended on each boundary vote below.
  const std::vector<std::uint64_t> boundaries = {1, 10, 11, 20, 21, 43};
  std::vector<bool> seen(boundaries.size(), false);
  const auto order = global_order();
  std::vector<std::uint64_t> applied(small_stream().stories.size(), 0);
  StreamEngine stepped(small_stream(), corpus.network, params);
  std::uint64_t limit = 0;
  std::uint64_t early_steps = 0;
  const std::uint64_t stepped_passes_before = passes.value();
  while (limit < order.size() &&
         std::find(seen.begin(), seen.end(), false) != seen.end()) {
    const std::uint32_t slot = order[limit].second;
    if (applied[slot] < StreamEngine::horizon()) ++early_steps;
    ++limit;
    stepped.run_until(limit);
    const std::uint64_t votes = ++applied[slot];
    ASSERT_EQ(stepped.query_story(slot).final_votes, votes);
    for (std::size_t b = 0; b < boundaries.size(); ++b)
      if (votes == boundaries[b]) seen[b] = true;
  }
  for (std::size_t b = 0; b < boundaries.size(); ++b)
    EXPECT_TRUE(seen[b]) << "no slice ended on vote " << boundaries[b];
  // Each step below the horizon is one prefix pass; past it, none.
  EXPECT_EQ(passes.value() - stepped_passes_before, early_steps);

  // The same cut in one call writes the same bytes.
  StreamEngine cut(small_stream(), corpus.network, params);
  cut.run_until(limit);
  const auto stepped_mid = file("stepped_mid.ckpt");
  const auto cut_mid = file("cut_mid.ckpt");
  stepped.save_checkpoint(stepped_mid);
  cut.save_checkpoint(cut_mid);
  EXPECT_EQ(slurp(stepped_mid), slurp(cut_mid));
  expect_same_result(cut.result(), stepped.result());

  stepped.run_all();
  const auto rejoined = file("rejoined.ckpt");
  stepped.save_checkpoint(rejoined);
  EXPECT_EQ(slurp(straight), slurp(rejoined));
  expect_same_result(oneshot.result(), stepped.result());
  EXPECT_EQ(oneshot.result(), stepped.result());
}

TEST_F(StreamTest, CheckpointRestoreRewindsAFinishedEngine) {
  const auto& corpus = small_corpus().corpus;
  StreamEngine engine(small_stream(), corpus.network);
  engine.run_until(engine.total_events() / 2);
  const auto path = file("half.ckpt");
  engine.save_checkpoint(path);
  engine.run_all();
  const StreamResult finished = engine.result();

  engine.restore_checkpoint(path);
  EXPECT_EQ(engine.events_applied(), engine.total_events() / 2);
  engine.run_all();
  expect_same_result(finished, engine.result());
}

// A restore at any cut — the first vote, between two same-time votes of one
// story, mid-stream, one vote short of the end, the end — resumes to the
// result of an uninterrupted run, in replay and in live mode. Below-horizon
// stories at the cut recount their checkpoints from the prefix.
TEST_F(StreamTest, RestoreAtAnyCutMatchesAnUninterruptedRun) {
  const auto& corpus = small_corpus().corpus;
  const std::uint64_t horizon = StreamEngine::horizon();
  const auto below_horizon = [&](const StreamResult& r) {
    return static_cast<std::uint64_t>(std::count_if(
        r.stories.begin(), r.stories.end(), [&](const StoryOutcome& o) {
          return o.final_votes > 0 && o.final_votes < horizon;
        }));
  };
  const auto path = file("cut.ckpt");
  const std::uint64_t total = small_stream().total_events();
  // A replay cut between two same-time votes of one story.
  const auto order = global_order();
  std::uint64_t tie_cut = 0;
  for (std::size_t i = 1; i < order.size() && tie_cut == 0; ++i)
    if (order[i] == order[i - 1]) tie_cut = i;
  ASSERT_GT(tie_cut, 0u);

  // `make` builds a fresh engine, `advance(e, begin, end)` applies events
  // [begin, end) to it.
  const auto check = [&](const auto& make, const auto& advance) {
    StreamEngine straight = make();
    advance(straight, 0, total);
    const StreamResult expect = straight.result();
    std::uint64_t below = 0;
    for (const std::uint64_t cut : {std::uint64_t{1}, tie_cut, total / 7,
                                    total / 2, total - 1, total}) {
      SCOPED_TRACE("cut " + std::to_string(cut));
      StreamEngine writer = make();
      advance(writer, 0, cut);
      writer.save_checkpoint(path);
      below += below_horizon(writer.result());
      StreamEngine resumed = make();
      resumed.restore_checkpoint(path);
      advance(resumed, cut, total);
      expect_same_result(expect, resumed.result());
    }
    EXPECT_GT(below, 0u);
  };
  {
    SCOPED_TRACE("replay");
    check([&] { return StreamEngine(small_stream(), corpus.network); },
          [](StreamEngine& e, std::uint64_t, std::uint64_t end) {
            e.run_until(end);
          });
  }
  {
    SCOPED_TRACE("live");
    check([&] { return StreamEngine(corpus.network); }, feed_live);
  }
}

// build_event_stream is the only O(votes) pass: over a mapped snapshot,
// building engines, running, saving and restoring read no column pass.
TEST_F(StreamTest, OnlyTheStreamBuildPassesOverTheColumns) {
  const auto snap = file("corpus.diggsnap");
  data::save_snapshot(small_corpus().corpus, snap);
  const data::Corpus mapped = data::load_snapshot_mmap(snap);
  const EventStream& in_memory = small_stream();  // built before the window
  const obs::Counter& passes =
      obs::Registry::global().counter("stream.column_passes");
  const std::uint64_t before = passes.value();
  const EventStream stream = build_event_stream(mapped);
  EXPECT_EQ(passes.value(), before + 1);
  EXPECT_EQ(stream.identity, in_memory.identity);

  StreamEngine first(stream, mapped.network);
  first.run_until(stream.total_events() / 2);
  const auto ckpt = file("half.ckpt");
  first.save_checkpoint(ckpt);
  StreamEngine resumed(stream, mapped.network);
  resumed.restore_checkpoint(ckpt);
  resumed.run_all();
  EXPECT_EQ(passes.value(), before + 1);

  StreamEngine straight(in_memory, small_corpus().corpus.network);
  straight.run_all();
  EXPECT_EQ(resumed.fingerprint(), straight.fingerprint());
  expect_same_result(straight.result(), resumed.result());
}

// Replay stores each story's influence after its applied prefix instead of
// recounting it in result(): mid-stream, every story below the horizon
// reports the recount's value, before and after a checkpoint round trip.
TEST_F(StreamTest, MidStreamInfluenceMatchesARecount) {
  const auto& corpus = small_corpus().corpus;
  const auto ckpt = file("cut.ckpt");
  std::size_t short_stories = 0;
  for (const std::uint64_t cut :
       {small_stream().total_events() / 7, small_stream().total_events() / 2}) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    StreamEngine engine(small_stream(), corpus.network);
    engine.run_until(cut);
    const StreamResult result = engine.result();
    for (std::uint32_t slot = 0; slot < result.stories.size(); ++slot) {
      const StoryOutcome& o = result.stories[slot];
      if (o.final_votes >= StreamEngine::horizon()) continue;
      std::array<std::uint32_t, StreamEngine::horizon()> curve{};
      const auto out = std::span(curve).first(o.final_votes);
      core::influence_curve(
          small_stream().stories[slot].voters().first(o.final_votes),
          corpus.network, out);
      const std::size_t now = o.final_votes == 0 ? 0 : out.back();
      EXPECT_EQ(o.influence.back(), now) << "slot " << slot;
      ++short_stories;
    }
    engine.save_checkpoint(ckpt);
    StreamEngine restored(small_stream(), corpus.network);
    restored.restore_checkpoint(ckpt);
    expect_same_result(result, restored.result());
  }
  EXPECT_GT(short_stories, 0u);
}

// The influence column is bounded by the graph's user count, and is 0 for a
// story with no votes applied.
TEST_F(StreamTest, RejectsInfluenceColumnOutOfRange) {
  const auto& corpus = small_corpus().corpus;
  StreamEngine engine(small_stream(), corpus.network);
  engine.run_until(1000);
  const std::size_t stories = corpus.story_count();
  // Bayes is off, so STREAM_STATE ends with the u32 influence column.
  const auto forge = [&](std::size_t slot, std::uint32_t value) {
    std::vector<snapfmt::Section> sections = engine.checkpoint_sections();
    std::vector<char> body = sections[1].body.bytes();
    std::memcpy(body.data() + body.size() - 4 * (stories - slot), &value, 4);
    sections[1].body = {};
    sections[1].body.raw(body.data(), body.size());
    const auto path = file("influence.ckpt");
    snapfmt::write_section_file(path, sections);
    return path;
  };
  const StreamResult result = engine.result();
  std::size_t unstarted = stories;
  for (std::size_t slot = 0; slot < stories; ++slot)
    if (result.stories[slot].final_votes == 0) unstarted = slot;
  ASSERT_LT(unstarted, stories);
  for (const auto& [slot, value] :
       {std::pair<std::size_t, std::uint32_t>{
            0, static_cast<std::uint32_t>(corpus.network.node_count() + 1)},
        {unstarted, 1u}}) {
    StreamEngine fresh(small_stream(), corpus.network);
    try {
      fresh.restore_checkpoint(forge(slot, value));
      FAIL() << "expected influence " << value << " at slot " << slot
             << " to be refused";
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find("checkpoint influence out of range"),
                std::string::npos)
          << err.what();
    }
    EXPECT_EQ(fresh.events_applied(), 0u);
  }
}

TEST_F(StreamTest, RejectsMalformedCheckpoints) {
  const auto& corpus = small_corpus().corpus;
  StreamEngine engine(small_stream(), corpus.network);
  engine.run_until(engine.total_events() / 2);
  const auto path = file("good.ckpt");
  engine.save_checkpoint(path);
  const std::vector<char> good = slurp(path);
  ASSERT_GT(good.size(), 64u);

  // Every refusal names the checkpoint file.
  const auto expect_throw = [&](const std::filesystem::path& p,
                                const std::string& needle) {
    try {
      engine.restore_checkpoint(p);
      FAIL() << "expected restore to reject " << p;
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
          << err.what();
      EXPECT_NE(std::string(err.what()).find(p.filename().string()),
                std::string::npos)
          << err.what();
    }
  };

  {
    std::vector<char> bad = good;
    bad[1] = 'X';
    spew(file("magic.ckpt"), bad);
    expect_throw(file("magic.ckpt"), "bad magic");
  }
  {
    std::vector<char> bad = good;
    bad[good.size() / 2] ^= 0x20;
    spew(file("flip.ckpt"), bad);
    expect_throw(file("flip.ckpt"), "checksum mismatch");
  }
  {
    std::vector<char> bad = good;
    bad.resize(bad.size() / 2);
    spew(file("trunc.ckpt"), bad);
    expect_throw(file("trunc.ckpt"), "truncated");
  }
  {
    // Checksum-clean, but the meta section stops four bytes short of its
    // last field: the in-section overrun must name the file too.
    std::vector<snapfmt::Section> sections = engine.checkpoint_sections();
    std::vector<char> meta = sections[0].body.bytes();
    meta.resize(meta.size() - 4);
    sections[0].body = {};
    sections[0].body.raw(meta.data(), meta.size());
    snapfmt::write_section_file(file("short_meta.ckpt"), sections);
    expect_throw(file("short_meta.ckpt"),
                 "truncated file (section overruns payload)");
  }
}

TEST_F(StreamTest, RestoreLatencyCountsOnlySuccessfulRestores) {
  // stream.checkpoint_restore_us is fed by the restore's span, which
  // observes only on normal exit.
  obs::set_recorder_enabled(true);
  const obs::Histogram& restore_us =
      obs::Registry::global().histogram("stream.checkpoint_restore_us");
  const auto& corpus = small_corpus().corpus;
  StreamEngine engine(small_stream(), corpus.network);
  engine.run_until(engine.total_events() / 3);
  const auto good = file("good.ckpt");
  engine.save_checkpoint(good);

  // The same checkpoint with its stream fingerprint (meta byte 8) flipped.
  std::vector<snapfmt::Section> sections = engine.checkpoint_sections();
  std::vector<char> meta = sections[0].body.bytes();
  meta[8] ^= 0x01;
  sections[0].body = {};
  sections[0].body.raw(meta.data(), meta.size());
  const auto forged = file("fingerprint.ckpt");
  snapfmt::write_section_file(forged, sections);

  StreamEngine resumed(small_stream(), corpus.network);
  const std::uint64_t before = restore_us.count();
  EXPECT_THROW(resumed.restore_checkpoint(forged), std::runtime_error);
  EXPECT_EQ(restore_us.count(), before);
  resumed.restore_checkpoint(good);
  EXPECT_EQ(restore_us.count(), before + 1);
}

TEST_F(StreamTest, RejectsCheckpointFromDifferentStreamOrConfig) {
  const auto& corpus = small_corpus().corpus;
  StreamEngine engine(small_stream(), corpus.network);
  engine.run_until(1000);
  const auto path = file("mine.ckpt");
  engine.save_checkpoint(path);

  // Same container, different corpus: the fingerprint must refuse it.
  stats::Rng rng(7);
  data::SyntheticParams params;
  params.user_count = 8000;
  params.story_count = 60;
  params.vote_model.step = 2.0;
  const data::SyntheticCorpus other = data::generate_corpus(params, rng);
  const EventStream other_stream = build_event_stream(other.corpus);
  StreamEngine other_engine(other_stream, other.corpus.network);
  EXPECT_THROW(
      {
        try {
          other_engine.restore_checkpoint(path);
        } catch (const std::runtime_error& err) {
          EXPECT_NE(std::string(err.what()).find("fingerprint mismatch"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);

  // Same stream, different engine configuration.
  StreamParams other_params;
  other_params.interesting_threshold = core::kInterestingnessThreshold + 1;
  StreamEngine reconfigured(small_stream(), corpus.network, other_params);
  EXPECT_THROW(
      {
        try {
          reconfigured.restore_checkpoint(path);
        } catch (const std::runtime_error& err) {
          EXPECT_NE(std::string(err.what()).find("config mismatch"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(StreamTest, RejectsForgedProgressColumns) {
  const auto& corpus = small_corpus().corpus;
  StreamEngine engine(small_stream(), corpus.network);
  const std::uint64_t cut = 500;
  engine.run_until(cut);

  // Forge a container that passes every integrity check up to the payload
  // semantics: valid magic/checksum, matching fingerprint and config, but
  // an applied column that is not the stream's 500-event prefix.
  const std::size_t stories = corpus.story_count();
  // Reproduce the engine's global order independently and count the first
  // `cut` votes per story.
  const auto keys = global_order();
  std::vector<std::uint64_t> applied(stories, 0);
  for (std::uint64_t i = 0; i < cut; ++i) ++applied[keys[i].second];
  // Move one vote between two stories: totals still sum to `cut`.
  std::size_t donor = 0;
  while (applied[donor] == 0) ++donor;
  applied[donor] -= 1;
  applied[(donor + 1) % stories] += 1;

  snapfmt::Section sections[2];
  sections[0].type = snapfmt::kStreamMeta;
  snapfmt::ByteBuffer& meta = sections[0].body;
  meta.pod<std::uint32_t>(kStreamCheckpointVersion);
  meta.pod<std::uint32_t>(0);  // predictor not armed
  meta.pod<std::uint64_t>(engine.fingerprint());
  meta.pod<std::uint64_t>(engine.total_events());
  meta.pod<std::uint64_t>(cut);
  meta.pod<std::uint64_t>(stories);
  meta.pod<std::uint64_t>(core::kInterestingnessThreshold);
  meta.pod<std::uint32_t>(0);  // bayes fit disabled
  meta.pod<std::uint32_t>(0);  // replay mode (not a live checkpoint)

  sections[1].type = snapfmt::kStreamState;
  snapfmt::ByteBuffer& state = sections[1].body;
  state.column(applied);
  state.column(std::vector<std::uint32_t>(stories, 0));  // innetwork
  state.column(std::vector<std::uint8_t>(stories, 0));   // flags
  state.column(std::vector<double>(stories, 0.0));       // promoted_time
  state.column(std::vector<std::uint32_t>(stories * 3, 0xffffffffu));
  state.column(std::vector<std::uint32_t>(stories * 3, 0xffffffffu));
  state.column(std::vector<std::uint32_t>(stories, 0));  // influence now

  const auto path = file("forged.ckpt");
  snapfmt::write_section_file(path, sections);
  try {
    engine.restore_checkpoint(path);
    FAIL() << "expected the forged prefix to be rejected";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("not a stream prefix"),
              std::string::npos)
        << err.what();
  }
  // Only the current checkpoint version is read: the older layouts, the
  // never-written version 0 and future versions are all refused.
  for (const std::uint32_t version : {0u, 2u, 3u, 4u, 5u, 6u, 8u}) {
    snapfmt::Section forged[2] = {{snapfmt::kStreamMeta, {}}, sections[1]};
    forged[0].body.pod(version);
    forged[0].body.raw(meta.bytes().data() + 4, meta.size() - 4);
    snapfmt::write_section_file(path, forged);
    try {
      engine.restore_checkpoint(path);
      FAIL() << "expected checkpoint version " << version << " to be refused";
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what())
                    .find("unsupported stream checkpoint version " +
                          std::to_string(version)),
                std::string::npos)
          << err.what();
    }
  }
  // The failed restores must not have corrupted the engine.
  EXPECT_EQ(engine.events_applied(), cut);
  engine.run_all();
}

TEST_F(StreamTest, RejectsLivePrefixWithRepeatedVoter) {
  const auto& corpus = small_corpus().corpus;
  const platform::StoryView& s = small_stream().stories.front();
  ASSERT_GE(s.vote_count(), 3u);
  StreamEngine writer(corpus.network);
  const std::uint32_t slot =
      writer.live_submit(s.id, s.submitter, s.times()[0]);
  writer.live_vote(slot, s.voters()[1], s.times()[1]);
  writer.live_vote(slot, s.voters()[2], s.times()[2]);
  writer.note_events_applied(3);
  const auto good = file("good.ckpt");
  writer.save_checkpoint(good);

  // Valid checksums, but vote 2 repeats voter 1. With one story, SERVE_
  // STORIES holds three u32 columns padded to 16 bytes and one f64 column,
  // so the prefix voters start at byte 24.
  std::vector<snapfmt::Section> sections = writer.checkpoint_sections();
  ASSERT_EQ(sections.size(), 3u);
  std::vector<char> body = sections[2].body.bytes();
  std::memcpy(body.data() + 24 + 8, body.data() + 24 + 4, 4);
  sections[2].body = {};
  sections[2].body.raw(body.data(), body.size());
  const auto forged = file("repeat.ckpt");
  snapfmt::write_section_file(forged, sections);

  StreamEngine engine(corpus.network);
  try {
    engine.restore_checkpoint(forged);
    FAIL() << "expected the repeated live voter to be rejected";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what())
                  .find("checkpoint live prefix repeats a voter"),
              std::string::npos)
        << err.what();
  }
  // The failed restore left the engine as it was: fresh, and still able
  // to restore the honest checkpoint.
  EXPECT_EQ(engine.story_count(), 0u);
  EXPECT_EQ(engine.events_applied(), 0u);
  EXPECT_EQ(engine.state_bytes(), StreamEngine(corpus.network).state_bytes());
  engine.restore_checkpoint(good);
  expect_same_result(writer.result(), engine.result());
}

/// A live engine holding the first three votes of small_stream()'s first
/// story, its events noted.
StreamEngine three_vote_live_engine() {
  const platform::StoryView& s = small_stream().stories.front();
  StreamEngine engine(small_corpus().corpus.network);
  const std::uint32_t slot =
      engine.live_submit(s.id, s.submitter, s.times()[0]);
  engine.live_vote(slot, s.voters()[1], s.times()[1]);
  engine.live_vote(slot, s.voters()[2], s.times()[2]);
  engine.note_events_applied(3);
  return engine;
}

/// live_vote(slot 0, voter) on three_vote_live_engine() must throw
/// invalid_argument and leave the engine exactly as it was: same query
/// answer, same state bytes, the same checkpoint bytes, and that
/// checkpoint still restores.
void expect_live_vote_refused(platform::UserId voter,
                              const std::filesystem::path& before_path,
                              const std::filesystem::path& after_path) {
  StreamEngine engine = three_vote_live_engine();
  engine.save_checkpoint(before_path);
  const StoryOutcome before = engine.query_story(0);
  const std::size_t bytes = engine.state_bytes();
  const double later = small_stream().stories.front().times()[2];
  EXPECT_THROW(engine.live_vote(0, voter, later), std::invalid_argument);
  expect_same_outcome(before, engine.query_story(0));
  EXPECT_EQ(engine.state_bytes(), bytes);
  engine.save_checkpoint(after_path);
  EXPECT_EQ(slurp(before_path), slurp(after_path));
  StreamEngine restored(small_corpus().corpus.network);
  restored.restore_checkpoint(after_path);
  expect_same_result(engine.result(), restored.result());
}

TEST_F(StreamTest, LiveVoteRefusesARepeatedVoterBelowTheHorizon) {
  const platform::StoryView& s = small_stream().stories.front();
  ASSERT_GE(s.vote_count(), 3u);
  for (const platform::UserId voter : {s.voters()[1], s.voters()[2]})
    expect_live_vote_refused(voter, file("before.ckpt"), file("after.ckpt"));
}

TEST_F(StreamTest, LiveVoteRefusesTheSubmitterOnTheirOwnStory) {
  expect_live_vote_refused(small_stream().stories.front().submitter,
                           file("before.ckpt"), file("after.ckpt"));
}

// Non-finite live times pass every checksum and every ordering comparison
// (NaN compares false), so restore checks finiteness explicitly.
TEST_F(StreamTest, RejectsLivePrefixWithNonFiniteTimes) {
  const StreamEngine writer = three_vote_live_engine();
  const auto good = file("good.ckpt");
  writer.save_checkpoint(good);
  // One story with three prefix votes: SERVE_STORIES holds three u32
  // columns padded to 16 bytes, the f64 watermark at byte 16, the voters
  // at 24..36 padded to 40, then the three f64 prefix times.
  struct Row {
    std::size_t offset;
    double value;
    const char* error;
  };
  const Row rows[] = {
      {40 + 8, std::numeric_limits<double>::quiet_NaN(),
       "checkpoint live prefix time not finite"},
      {40 + 16, std::numeric_limits<double>::infinity(),
       "checkpoint live prefix time not finite"},
      {16, std::numeric_limits<double>::quiet_NaN(),
       "checkpoint live time watermark not finite"},
      {16, std::numeric_limits<double>::infinity(),
       "checkpoint live time watermark not finite"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.error);
    std::vector<snapfmt::Section> sections = writer.checkpoint_sections();
    ASSERT_EQ(sections.size(), 3u);
    std::vector<char> body = sections[2].body.bytes();
    ASSERT_EQ(body.size(), 40u + 3 * sizeof(double));
    std::memcpy(body.data() + row.offset, &row.value, sizeof(double));
    sections[2].body = {};
    sections[2].body.raw(body.data(), body.size());
    const auto forged = file("nonfinite.ckpt");
    snapfmt::write_section_file(forged, sections);

    StreamEngine engine(small_corpus().corpus.network);
    try {
      engine.restore_checkpoint(forged);
      FAIL() << "expected the non-finite live time to be rejected";
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find(row.error), std::string::npos)
          << err.what();
    }
    EXPECT_EQ(engine.story_count(), 0u);
    engine.restore_checkpoint(good);
    expect_same_result(writer.result(), engine.result());
  }
}

}  // namespace
}  // namespace digg::stream
