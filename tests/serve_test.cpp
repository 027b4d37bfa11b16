#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/core/features.h"
#include "src/core/predictor.h"
#include "src/data/snapshot_format.h"
#include "src/data/synthetic.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/runtime/parallel.h"
#include "src/serve/client.h"
#include "src/serve/mpsc_queue.h"
#include "src/serve/protocol.h"
#include "src/stream/checkpoint.h"
#include "src/stream/engine.h"
#include "src/stream/source.h"

namespace digg::serve {
namespace {

// ---------------------------------------------------------------------------
// Shared fixture data: a corpus small enough to generate in well under a
// second but large enough that stories cross the v10/v20 checkpoints and
// both label classes appear on the front page.

const data::SyntheticCorpus& test_corpus() {
  static const data::SyntheticCorpus c = [] {
    stats::Rng rng(42);
    data::SyntheticParams params;
    params.user_count = 20000;
    params.story_count = 200;
    params.vote_model.step = 2.0;
    return data::generate_corpus(params, rng);
  }();
  return c;
}

const core::InterestingnessPredictor& test_predictor() {
  static const core::InterestingnessPredictor p = [] {
    const data::Corpus& corpus = test_corpus().corpus;
    return core::InterestingnessPredictor::train(
        core::extract_features(corpus.front_page, corpus.network));
  }();
  return p;
}

stream::StreamParams test_stream_params() {
  stream::StreamParams sp;
  sp.predictor = &test_predictor();
  sp.bayes.enabled = true;
  return sp;
}

/// The test load: (story, events-to-send) pairs in a fixed story-major
/// order, capped per story so the suite stays fast.
struct LoadItem {
  const data::Story* story;
  std::size_t events;
};

std::vector<LoadItem> test_load(std::size_t max_stories,
                                std::size_t max_votes) {
  const data::Corpus& corpus = test_corpus().corpus;
  std::vector<LoadItem> load;
  for (const auto* list : {&corpus.upcoming, &corpus.front_page}) {
    for (const data::Story& s : *list) {
      if (load.size() >= max_stories) break;
      const std::size_t events = std::min(s.vote_count(), max_votes);
      if (events > 0) load.push_back({&s, events});
    }
  }
  return load;
}

void encode_load(const std::vector<LoadItem>& load, std::size_t begin_event,
                 std::size_t end_event, std::vector<char>& out) {
  // Events are numbered story-major: story 0's submit+votes, then story
  // 1's, ... — slicing [begin, end) lets kill/resume tests cut mid-story.
  std::size_t n = 0;
  for (const LoadItem& l : load) {
    const data::Story& s = *l.story;
    for (std::size_t k = 0; k < l.events; ++k, ++n) {
      if (n < begin_event || n >= end_event) continue;
      if (k == 0)
        encode(SubmitMsg{s.id, s.voters()[0], s.times()[0]}, out);
      else
        encode(VoteMsg{s.id, s.voters()[k], s.times()[k]}, out);
    }
  }
}

std::size_t total_events(const std::vector<LoadItem>& load) {
  std::size_t n = 0;
  for (const LoadItem& l : load) n += l.events;
  return n;
}

/// A single-threaded live engine fed the same load — the oracle every
/// server reply is compared against.
stream::StreamEngine make_oracle(const std::vector<LoadItem>& load) {
  stream::StreamEngine oracle(test_corpus().corpus.network,
                              test_stream_params());
  for (const LoadItem& l : load) {
    const data::Story& s = *l.story;
    const auto slot = oracle.live_submit(s.id, s.voters()[0], s.times()[0]);
    for (std::size_t k = 1; k < l.events; ++k)
      oracle.live_vote(slot, s.voters()[k], s.times()[k]);
    oracle.note_events_applied(l.events);
  }
  return oracle;
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Field-for-field equality of two engines' results.
void expect_same_result(const stream::StreamResult& got,
                        const stream::StreamResult& expect) {
  EXPECT_EQ(got.events_applied, expect.events_applied);
  ASSERT_EQ(got.stories.size(), expect.stories.size());
  for (std::size_t i = 0; i < got.stories.size(); ++i) {
    SCOPED_TRACE("story slot " + std::to_string(i));
    const auto& a = got.stories[i];
    const auto& b = expect.stories[i];
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
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps two builds' runs of one test apart.
    dir_ = std::filesystem::temp_directory_path() /
           ("digg_serve_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Protocol: round-trips.

TEST(ServeProtocolTest, RoundTripsEveryMessageType) {
  std::vector<Message> msgs = {
      VoteMsg{7, 1234, 56.5},
      SubmitMsg{8, 99, 1.25},
      QueryStateMsg{42},
      QueryPredictMsg{43},
      SyncMsg{0xdeadbeef},
      StateReplyMsg{7, 1, 1000, 55, {3, 9, 17}, 1, 321.75},
      PredictReplyMsg{7, 1, 1, 1, 0, 1, 812.5},
      SyncReplyMsg{0xdeadbeef},
      ErrorMsg{ErrorCode::kUnknownStory, 42},
  };
  std::vector<char> wire;
  for (const Message& m : msgs) encode(m, wire);

  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  std::vector<Message> out;
  Message m;
  while (decoder.next(m)) out.push_back(m);
  ASSERT_EQ(out.size(), msgs.size());

  EXPECT_EQ(std::get<VoteMsg>(out[0]).story_id, 7u);
  EXPECT_EQ(std::get<VoteMsg>(out[0]).voter, 1234u);
  EXPECT_EQ(std::get<VoteMsg>(out[0]).time, 56.5);
  EXPECT_EQ(std::get<SubmitMsg>(out[1]).submitter, 99u);
  EXPECT_EQ(std::get<QueryStateMsg>(out[2]).story_id, 42u);
  EXPECT_EQ(std::get<QueryPredictMsg>(out[3]).story_id, 43u);
  EXPECT_EQ(std::get<SyncMsg>(out[4]).token, 0xdeadbeefu);
  const auto& state = std::get<StateReplyMsg>(out[5]);
  EXPECT_EQ(state.votes, 1000u);
  EXPECT_EQ(state.fans1, 55u);
  EXPECT_EQ(state.cascade, (std::vector<std::uint32_t>{3, 9, 17}));
  EXPECT_EQ(state.promoted, 1);
  EXPECT_EQ(state.promoted_time, 321.75);
  const auto& predict = std::get<PredictReplyMsg>(out[6]);
  EXPECT_EQ(predict.has_c45, 1);
  EXPECT_EQ(predict.c45_yes, 1);
  EXPECT_EQ(predict.bayes_expected_final, 812.5);
  EXPECT_EQ(std::get<SyncReplyMsg>(out[7]).token, 0xdeadbeefu);
  EXPECT_EQ(std::get<ErrorMsg>(out[8]).code, ErrorCode::kUnknownStory);
}

TEST(ServeProtocolTest, DecodesAcrossArbitraryFeedBoundaries) {
  std::vector<char> wire;
  for (int i = 0; i < 50; ++i)
    encode(VoteMsg{static_cast<std::uint32_t>(i), 7, 0.5 * i}, wire);
  FrameDecoder decoder;
  std::size_t decoded = 0;
  Message m;
  for (std::size_t i = 0; i < wire.size(); ++i) {  // one byte at a time
    decoder.feed(wire.data() + i, 1);
    while (decoder.next(m)) {
      EXPECT_EQ(std::get<VoteMsg>(m).story_id, decoded);
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, 50u);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol: the malformed-frame table the ASan leg runs — truncated,
// oversized, and garbage inputs must throw ProtocolError, never crash or
// over-read (this drives the exact decoder the server's read path uses).

TEST(ServeProtocolTest, MalformedFramesThrowWithoutCrashing) {
  struct Case {
    const char* name;
    std::vector<char> bytes;
  };
  auto frame = [](std::uint32_t len, const std::vector<char>& body) {
    std::vector<char> out(4 + body.size());
    std::memcpy(out.data(), &len, sizeof(len));
    std::copy(body.begin(), body.end(), out.begin() + 4);
    return out;
  };
  const std::vector<Case> cases = {
      {"zero length", frame(0, {})},
      {"length beyond cap", frame(kMaxFrameBytes + 1, {1})},
      {"length 0xffffffff", frame(0xffffffffu, {1})},
      {"unknown type 0", frame(1, {0})},
      {"unknown type 42", frame(1, {42})},
      {"unknown type 255", frame(1, {'\xff'})},
      {"vote body truncated", frame(5, {1, 7, 0, 0, 0})},
      {"vote body oversized", frame(18, {1, 7, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
                                         0, 0, 0, 0, 0, 9})},
      {"submit body empty", frame(1, {2})},
      {"sync body truncated", frame(3, {5, 1, 2})},
      {"state reply huge cascade count",
       frame(22, {16, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0,
                  '\xff', '\xff', '\xff', '\xff'})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FrameDecoder decoder;
    decoder.feed(c.bytes.data(), c.bytes.size());
    Message m;
    EXPECT_THROW(
        {
          while (decoder.next(m)) {
          }
        },
        ProtocolError);
    // Poisoned: every further use throws too.
    EXPECT_THROW((void)decoder.next(m), ProtocolError);
    EXPECT_THROW(decoder.feed(c.bytes.data(), 1), ProtocolError);
  }
}

TEST(ServeProtocolTest, GarbageStreamsNeverCrashTheDecoder) {
  // Deterministic pseudo-random buffers: every one either decodes into
  // messages or throws ProtocolError — nothing else may happen.
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  auto next_byte = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<char>(state & 0xff);
  };
  std::size_t threw = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<char> garbage(64 + (round * 7) % 512);
    for (char& b : garbage) b = next_byte();
    FrameDecoder decoder;
    Message m;
    try {
      decoder.feed(garbage.data(), garbage.size());
      while (decoder.next(m)) {
      }
    } catch (const ProtocolError&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0u);  // random 4-byte lengths are overwhelmingly invalid
}

// ---------------------------------------------------------------------------
// MPSC ring queue.

TEST(MpscQueueTest, SingleThreadFifoAndFullBehavior) {
  EXPECT_THROW(MpscQueue<int>(0), std::invalid_argument);
  // A one-cell ring cannot tell a published cell from a freed one, so a
  // request for 1 gets 2.
  struct Row {
    std::size_t requested;
    int capacity;
  };
  for (const Row row : {Row{1, 2}, Row{3, 4}, Row{4, 4}}) {
    SCOPED_TRACE("requested capacity " + std::to_string(row.requested));
    MpscQueue<int> q(row.requested);
    EXPECT_EQ(q.capacity(), static_cast<std::size_t>(row.capacity));
    for (int i = 0; i < row.capacity; ++i) EXPECT_TRUE(q.try_push(i));
    EXPECT_EQ(q.fill_level(), static_cast<std::size_t>(row.capacity));
    EXPECT_FALSE(q.try_push(99));  // full: never blocks, never overwrites
    int out[8];
    ASSERT_EQ(q.pop_batch(out, 8), static_cast<std::size_t>(row.capacity));
    for (int i = 0; i < row.capacity; ++i) EXPECT_EQ(out[i], i);
    EXPECT_EQ(q.pop_batch(out, 8), 0u);
    EXPECT_EQ(q.fill_level(), 0u);
    // Wraps across laps.
    for (int lap = 0; lap < 3; ++lap) {
      for (int i = 0; i < row.capacity - 1; ++i)
        EXPECT_TRUE(q.try_push(lap * 10 + i));
      ASSERT_EQ(q.pop_batch(out, 8),
                static_cast<std::size_t>(row.capacity - 1));
      for (int i = 0; i < row.capacity - 1; ++i)
        EXPECT_EQ(out[i], lap * 10 + i);
    }
  }
}

TEST(MpscQueueTest, MultiProducerDeliversEverythingOncePerProducerFifo) {
  // The TSan target: racing producers against the single consumer proves
  // the acquire/release publication protocol (a missing fence shows up as
  // a data race on the cell value; a lost CAS shows up as a dropped or
  // duplicated item).
  constexpr int kProducers = 4;
  constexpr std::uint32_t kPerProducer = 20000;
  MpscQueue<std::uint64_t> q(1024);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t item =
            (static_cast<std::uint64_t>(p) << 32) | i;
        while (!q.try_push(item)) std::this_thread::yield();
      }
    });
  }

  std::vector<std::uint32_t> next_expected(kProducers, 0);
  std::uint64_t received = 0;
  std::uint64_t buf[256];
  while (received < static_cast<std::uint64_t>(kProducers) * kPerProducer) {
    const auto n = q.pop_batch(buf, 256);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = static_cast<int>(buf[i] >> 32);
      const auto seq = static_cast<std::uint32_t>(buf[i]);
      ASSERT_LT(p, kProducers);
      ASSERT_EQ(seq, next_expected[p]) << "per-producer FIFO violated";
      ++next_expected[p];
    }
    received += n;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(q.pop_batch(buf, 256), 0u);
}

// ---------------------------------------------------------------------------
// Live engine: equality with replay mode, and the shard-parallel contract.

TEST(ServeLiveEngineTest, LiveIngestMatchesReplayOutcomes) {
  const data::Corpus& corpus = test_corpus().corpus;
  const stream::EventStream es = stream::build_event_stream(corpus);

  stream::StreamEngine replay(es, corpus.network, test_stream_params());
  replay.run_all();
  stream::StreamResult expect = replay.result();

  stream::StreamEngine live(corpus.network, test_stream_params());
  for (const auto& story : es.stories) {
    const auto slot =
        live.live_submit(story.id, story.submitter, story.times()[0]);
    for (std::size_t k = 1; k < story.voters().size(); ++k)
      live.live_vote(slot, story.voters()[k], story.times()[k]);
    live.note_events_applied(story.voters().size());
  }
  expect_same_result(live.result(), expect);
}

TEST(ServeLiveEngineTest, ShardParallelApplyMatchesSerial) {
  // The coordinator's apply step: submits serial, then each shard's vote
  // list applied via parallel_for — live_vote's safety across stories
  // under the real thread pool (the TSan leg races it).
  const auto load = test_load(80, 60);

  stream::StreamEngine serial = make_oracle(load);

  stream::StreamEngine parallel(test_corpus().corpus.network,
                                test_stream_params());
  struct PendingVote {
    std::uint32_t slot;
    platform::UserId voter;
    platform::Minutes time;
  };
  constexpr auto kShards = stream::StreamEngine::kShardCount;
  std::vector<std::vector<PendingVote>> by_shard(kShards);
  std::uint64_t events = 0;
  for (const LoadItem& l : load) {
    const data::Story& s = *l.story;
    const auto slot =
        parallel.live_submit(s.id, s.voters()[0], s.times()[0]);
    for (std::size_t k = 1; k < l.events; ++k)
      by_shard[slot % kShards].push_back(
          {slot, s.voters()[k], s.times()[k]});
    events += l.events;
  }
  runtime::parallel_for(
      kShards,
      [&](std::size_t shard) {
        for (const PendingVote& v : by_shard[shard])
          parallel.live_vote(v.slot, v.voter, v.time);
      },
      {.grain = 1});
  parallel.note_events_applied(events);

  expect_same_result(parallel.result(), serial.result());
}

// ---------------------------------------------------------------------------
// Server: construction-time validation.

TEST(ServeParamsTest, CheckpointCadenceRequiresPath) {
  ServeParams params;
  params.checkpoint_ms = 100;  // no checkpoint_path
  EXPECT_THROW(Server(test_corpus().corpus.network, params),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Server: end-to-end over real sockets.

ServeParams test_serve_params() {
  ServeParams params;
  params.stream = test_stream_params();
  return params;
}

/// Sends `wire` followed by a sync barrier, returns the connection fd (or
/// asserts). Keeps the decoder for subsequent queries.
int drive_events(std::uint16_t port, const std::vector<char>& wire,
                 FrameDecoder& decoder) {
  const int fd = connect_loopback(port);
  EXPECT_GE(fd, 0);
  if (fd < 0) return -1;
  std::string error;
  EXPECT_TRUE(write_all(fd, wire.data(), wire.size()));
  EXPECT_TRUE(sync_barrier(fd, decoder, 1, error)) << error;
  return fd;
}

/// Queries every story of `load` over `fd` and checks each reply against
/// a serial replay of the load (the exact oracle serve_load --verify uses).
void expect_matches_oracle(int fd, FrameDecoder& decoder,
                           const std::vector<LoadItem>& load) {
  std::vector<char> queries;
  for (const LoadItem& l : load) {
    encode(QueryStateMsg{l.story->id}, queries);
    encode(QueryPredictMsg{l.story->id}, queries);
  }
  ASSERT_TRUE(write_all(fd, queries.data(), queries.size()));
  std::vector<Message> replies;
  std::string error;
  ASSERT_TRUE(read_messages(fd, decoder, replies, load.size() * 2, error))
      << error;

  stream::StreamEngine oracle = make_oracle(load);
  for (std::size_t i = 0; i < load.size(); ++i) {
    SCOPED_TRACE("story index " + std::to_string(i));
    const auto expect = oracle.query_story(static_cast<std::uint32_t>(i));
    const auto& state = std::get<StateReplyMsg>(replies[i * 2]);
    const auto& predict = std::get<PredictReplyMsg>(replies[i * 2 + 1]);
    EXPECT_EQ(state.found, 1);
    EXPECT_EQ(state.story_id, expect.id);
    EXPECT_EQ(state.votes, expect.final_votes);
    EXPECT_EQ(state.fans1, expect.fans1);
    ASSERT_EQ(state.cascade.size(), expect.cascade.size());
    for (std::size_t k = 0; k < state.cascade.size(); ++k)
      EXPECT_EQ(state.cascade[k], expect.cascade[k]);
    EXPECT_EQ(state.promoted, expect.promoted_time.has_value() ? 1 : 0);
    EXPECT_EQ(state.promoted_time, expect.promoted_time.value_or(0.0));
    EXPECT_EQ(predict.found, 1);
    EXPECT_EQ(predict.has_c45,
              expect.predicted_interesting.has_value() ? 1 : 0);
    EXPECT_EQ(predict.c45_yes,
              expect.predicted_interesting.value_or(false) ? 1 : 0);
    EXPECT_EQ(predict.has_bayes,
              expect.bayes_interesting.has_value() ? 1 : 0);
    EXPECT_EQ(predict.bayes_yes,
              expect.bayes_interesting.value_or(false) ? 1 : 0);
    EXPECT_EQ(predict.bayes_expected_final, expect.bayes_expected_final);
  }
}

TEST_F(ServeTest, EndToEndMatchesOracleAndDrainsEverything) {
  const auto load = test_load(60, 50);
  std::vector<char> wire;
  encode_load(load, 0, total_events(load), wire);

  Server server(test_corpus().corpus.network, test_serve_params());
  const auto port = server.start();
  ASSERT_GT(port, 0);
  EXPECT_TRUE(server.running());

  FrameDecoder decoder;
  const int fd = drive_events(port, wire, decoder);
  ASSERT_GE(fd, 0);
  // Query every story through the socket and compare against the oracle.
  expect_matches_oracle(fd, decoder, load);
  ::close(fd);

  // Graceful drain applied every accepted event.
  server.request_stop();
  server.wait();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.engine().events_applied(), total_events(load));
  EXPECT_EQ(server.engine().story_count(), load.size());
}

TEST_F(ServeTest, RejectsOutOfRangeUsersAndKeepsServing) {
  // One vote frame with voter 0xFFFFFFF0 used to throw inside the engine's
  // shard apply and abort the process. Both user-id fields are now checked
  // at the front-end and answered with kUnknownUser.
  const auto load = test_load(60, 50);
  std::vector<char> wire;
  encode_load(load, 0, total_events(load), wire);

  Server server(test_corpus().corpus.network, test_serve_params());
  const auto port = server.start();
  obs::Counter& rejected =
      obs::Registry::global().counter("serve.rejected_unknown_user");
  const std::uint64_t rejected_before = rejected.value();

  FrameDecoder decoder;
  const int fd = drive_events(port, wire, decoder);
  ASSERT_GE(fd, 0);
  constexpr std::uint32_t kBadUser = 0xFFFFFFF0u;
  std::vector<char> hostile;
  encode(VoteMsg{load.front().story->id, kBadUser, 1e6}, hostile);
  encode(SubmitMsg{424242, kBadUser, 1e6}, hostile);
  encode(SyncMsg{77}, hostile);
  ASSERT_TRUE(write_all(fd, hostile.data(), hostile.size()));
  std::vector<Message> replies;
  for (int k = 0; k < 2; ++k) {
    std::string error;
    EXPECT_FALSE(read_messages(fd, decoder, replies, 1, error));
    EXPECT_NE(error.find("code=5 detail=" + std::to_string(kBadUser)),
              std::string::npos)
        << error;
  }
  std::string error;
  ASSERT_TRUE(read_messages(fd, decoder, replies, 1, error)) << error;
  const auto* sync = std::get_if<SyncReplyMsg>(&replies.back());
  ASSERT_NE(sync, nullptr);
  EXPECT_EQ(sync->token, 77u);
  EXPECT_EQ(rejected.value() - rejected_before, 2u);

  // The rejected frames left no trace: every story still matches the
  // oracle, and the refused submit registered nothing.
  expect_matches_oracle(fd, decoder, load);
  ::close(fd);
  server.request_stop();
  server.wait();
  EXPECT_EQ(server.engine().events_applied(), total_events(load));
  EXPECT_EQ(server.engine().story_count(), load.size());
}

TEST_F(ServeTest, RejectsNonFiniteTimesAndKeepsServing) {
  // A NaN vote time used to be accepted silently: it passes the engine's
  // order check and poisons the Bayes fit. Non-finite vote and submit
  // times are now refused at the front-end with kBadTime.
  Server server(test_corpus().corpus.network, test_serve_params());
  const auto port = server.start();
  obs::Counter& rejected =
      obs::Registry::global().counter("serve.rejected_bad_time");
  const std::uint64_t rejected_before = rejected.value();
  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  constexpr std::uint32_t kStory = 9001;
  std::vector<char> wire;
  encode(SubmitMsg{kStory, 11, 1.0}, wire);
  encode(VoteMsg{kStory, 12, std::numeric_limits<double>::quiet_NaN()}, wire);
  encode(VoteMsg{kStory, 12, std::numeric_limits<double>::infinity()}, wire);
  encode(SubmitMsg{kStory + 1, 11, -std::numeric_limits<double>::infinity()},
         wire);
  encode(VoteMsg{kStory, 12, 2.0}, wire);
  encode(SyncMsg{5}, wire);
  encode(QueryStateMsg{kStory}, wire);
  ASSERT_TRUE(write_all(fd, wire.data(), wire.size()));
  FrameDecoder decoder;
  std::vector<Message> replies;
  for (const std::uint32_t story : {kStory, kStory, kStory + 1}) {
    std::string error;
    EXPECT_FALSE(read_messages(fd, decoder, replies, 1, error));
    EXPECT_NE(error.find("code=6 detail=" + std::to_string(story)),
              std::string::npos)
        << error;
  }
  // The connection stays open, and the valid vote after the refusals is
  // applied before the sync is answered.
  std::string error;
  ASSERT_TRUE(read_messages(fd, decoder, replies, 2, error)) << error;
  const auto* sync = std::get_if<SyncReplyMsg>(&replies[replies.size() - 2]);
  ASSERT_NE(sync, nullptr);
  EXPECT_EQ(sync->token, 5u);
  const auto* state = std::get_if<StateReplyMsg>(&replies.back());
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->found, 1);
  EXPECT_EQ(state->votes, 2u);
  EXPECT_EQ(rejected.value() - rejected_before, 3u);
  ::close(fd);
  server.request_stop();
  server.wait();
  EXPECT_EQ(server.engine().story_count(), 1u);
  EXPECT_EQ(server.engine().events_applied(), 2u);
}

// One hostile vote frame per row. Each is well formed and used to reach
// the coordinator's live_vote, whose throw aborted the process; the
// front-end now refuses it with its own code and counter. Story 9100 is
// submitted by user 11 at t=1 and dugg by 12 and 13 at t=2 and t=3.
struct HostileVote {
  const char* name;
  std::uint32_t voter;
  double time;
  ErrorCode code;
  const char* counter;
};

void PrintTo(const HostileVote& row, std::ostream* os) { *os << row.name; }

class ServeHostileVoteTest : public ::testing::TestWithParam<HostileVote> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("digg_serve_hostile_" + std::to_string(::getpid()) + "_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + GetParam().name);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Sends the hostile frame, then `valid` votes, a sync and a state query
  /// on one connection. Expects the frame refused with the row's code and
  /// counter, and the query to see `votes_after` votes.
  void expect_refused_then_applies(
      std::uint16_t port, const std::vector<VoteMsg>& valid,
      std::uint64_t votes_after) {
    const HostileVote& row = GetParam();
    obs::Counter& rejected = obs::Registry::global().counter(row.counter);
    const std::uint64_t rejected_before = rejected.value();
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    std::vector<char> wire;
    encode(VoteMsg{kStory, row.voter, row.time}, wire);
    for (const VoteMsg& v : valid) encode(v, wire);
    encode(SyncMsg{3}, wire);
    encode(QueryStateMsg{kStory}, wire);
    ASSERT_TRUE(write_all(fd, wire.data(), wire.size()));
    FrameDecoder decoder;
    std::vector<Message> replies;
    std::string error;
    EXPECT_FALSE(read_messages(fd, decoder, replies, 1, error));
    EXPECT_NE(error.find("code=" +
                         std::to_string(static_cast<unsigned>(row.code)) +
                         " detail=" + std::to_string(kStory)),
              std::string::npos)
        << error;
    ASSERT_TRUE(read_messages(fd, decoder, replies, 2, error)) << error;
    const auto* sync = std::get_if<SyncReplyMsg>(&replies[0]);
    ASSERT_NE(sync, nullptr);
    EXPECT_EQ(sync->token, 3u);
    const auto* state = std::get_if<StateReplyMsg>(&replies[1]);
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->found, 1);
    EXPECT_EQ(state->votes, votes_after);
    EXPECT_EQ(rejected.value() - rejected_before, 1u);
    ::close(fd);
  }

  static constexpr std::uint32_t kStory = 9100;
  std::filesystem::path dir_;
};

TEST_P(ServeHostileVoteTest, RefusedAndLaterVotesApply) {
  const auto ckpt = dir_ / "drain.ckpt";
  {
    ServeParams params = test_serve_params();
    params.checkpoint_path = ckpt;
    Server server(test_corpus().corpus.network, params);
    const auto port = server.start();
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    std::vector<char> wire;
    encode(SubmitMsg{kStory, 11, 1.0}, wire);
    encode(VoteMsg{kStory, 12, 2.0}, wire);
    encode(VoteMsg{kStory, 13, 3.0}, wire);
    FrameDecoder decoder;
    std::string error;
    ASSERT_TRUE(write_all(fd, wire.data(), wire.size()));
    ASSERT_TRUE(sync_barrier(fd, decoder, 1, error)) << error;
    ::close(fd);
    expect_refused_then_applies(port, {{kStory, 14, 4.0}, {kStory, 15, 5.0}},
                                5);
    server.request_stop();
    server.wait();
    EXPECT_EQ(server.engine().events_applied(), 5u);
  }
  // A restored server rebuilds the guards from the engine: the same frame
  // is refused again, and later votes still apply.
  Server server(test_corpus().corpus.network, test_serve_params());
  server.restore_checkpoint(ckpt);
  const auto port = server.start();
  expect_refused_then_applies(port, {{kStory, 16, 6.0}}, 6);
  server.request_stop();
  server.wait();
  EXPECT_EQ(server.engine().events_applied(), 6u);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, ServeHostileVoteTest,
    ::testing::Values(
        HostileVote{"RepeatedVoter", 12, 100.0, ErrorCode::kDuplicateVoter,
                    "serve.rejected_duplicate_voter"},
        HostileVote{"SubmitterVotesOwnStory", 11, 100.0,
                    ErrorCode::kDuplicateVoter,
                    "serve.rejected_duplicate_voter"},
        HostileVote{"TimeBeforeLast", 14, 2.5, ErrorCode::kTimeOrder,
                    "serve.rejected_time_order"}),
    [](const ::testing::TestParamInfo<HostileVote>& info) {
      return std::string(info.param.name);
    });

// The accepted counterpart of the rows above: once a story has `horizon`
// accepted events, a repeated voter is accepted and counted in final_votes
// (protocol.h), since refusing it would need voter state that grows with
// the votes.
TEST_F(ServeTest, PastHorizonRepeatedVoterIsAcceptedAndCounted) {
  constexpr std::uint32_t kStory = 9200;
  Server server(test_corpus().corpus.network, test_serve_params());
  const std::uint64_t horizon = server.engine().horizon();
  ASSERT_GE(horizon, 2u);
  const auto port = server.start();
  obs::Counter& rejected =
      obs::Registry::global().counter("serve.rejected_duplicate_voter");
  const std::uint64_t rejected_before = rejected.value();

  std::vector<char> wire;
  encode(SubmitMsg{kStory, 11, 1.0}, wire);
  for (std::uint32_t k = 1; k < horizon; ++k)
    encode(VoteMsg{kStory, 100 + k, 1.0 + k}, wire);
  encode(VoteMsg{kStory, 101, 1000.0}, wire);  // repeats the first voter
  encode(VoteMsg{kStory, 11, 1001.0}, wire);   // and the submitter
  encode(SyncMsg{9}, wire);
  encode(QueryStateMsg{kStory}, wire);
  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_all(fd, wire.data(), wire.size()));
  FrameDecoder decoder;
  std::vector<Message> replies;
  std::string error;
  ASSERT_TRUE(read_messages(fd, decoder, replies, 2, error)) << error;
  const auto* state = std::get_if<StateReplyMsg>(&replies[1]);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->found, 1);
  EXPECT_EQ(state->votes, horizon + 2);
  EXPECT_EQ(rejected.value(), rejected_before);
  ::close(fd);
  server.request_stop();
  server.wait();
  EXPECT_EQ(server.engine().events_applied(), horizon + 2);
}

TEST_F(ServeTest, RejectsUnknownStoriesAndDuplicateSubmits) {
  Server server(test_corpus().corpus.network, test_serve_params());
  const auto port = server.start();

  {
    // Vote for a story never submitted -> kUnknownStory.
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    std::vector<char> wire;
    encode(VoteMsg{424242, 1, 1.0}, wire);
    ASSERT_TRUE(write_all(fd, wire.data(), wire.size()));
    FrameDecoder decoder;
    std::vector<Message> replies;
    std::string error;
    EXPECT_FALSE(read_messages(fd, decoder, replies, 1, error));
    EXPECT_NE(error.find("code=1"), std::string::npos) << error;
    ::close(fd);
  }
  {
    // Submitting the same story twice -> kDuplicateStory.
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    std::vector<char> wire;
    encode(SubmitMsg{7, 11, 1.0}, wire);
    encode(SubmitMsg{7, 12, 2.0}, wire);
    ASSERT_TRUE(write_all(fd, wire.data(), wire.size()));
    FrameDecoder decoder;
    std::vector<Message> replies;
    std::string error;
    EXPECT_FALSE(read_messages(fd, decoder, replies, 1, error));
    EXPECT_NE(error.find("code=2"), std::string::npos) << error;
    ::close(fd);
  }
  {
    // A malformed frame -> kBadFrame, then the server closes the socket.
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    const std::uint32_t bad_len = 0xfffffff0u;
    ASSERT_TRUE(write_all(fd, reinterpret_cast<const char*>(&bad_len), 4));
    FrameDecoder decoder;
    std::vector<Message> replies;
    std::string error;
    EXPECT_FALSE(read_messages(fd, decoder, replies, 1, error));
    EXPECT_NE(error.find("code=3"), std::string::npos) << error;
    ::close(fd);
  }

  server.request_stop();
  server.wait();
}

// The coordinator cycles every 200 us while idle. A cycle that popped no
// vote must start no pool job, or an idle server runs about 3,000 empty
// 64-chunk jobs a second.
TEST_F(ServeTest, IdleServerRunsNoPoolJobs) {
  struct PoolThreads {  // a pool of two, so applies would count as jobs
    PoolThreads() { runtime::set_default_threads(2); }
    ~PoolThreads() { runtime::set_default_threads(0); }
  } pool_threads;
  const obs::Counter& jobs = obs::Registry::global().counter("runtime.jobs");
  const obs::Counter& chunks =
      obs::Registry::global().counter("runtime.chunks");
  Server server(test_corpus().corpus.network, test_serve_params());
  server.start();
  const std::uint64_t jobs_before = jobs.value();
  const std::uint64_t chunks_before = chunks.value();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(jobs.value(), jobs_before);
  EXPECT_EQ(chunks.value(), chunks_before);
  server.request_stop();
  server.wait();
}

TEST_F(ServeTest, RestoreAfterStartThrows) {
  Server server(test_corpus().corpus.network, test_serve_params());
  server.start();
  EXPECT_THROW(server.restore_checkpoint(dir_ / "nope.ckpt"),
               std::logic_error);
  server.request_stop();
  server.wait();
}

// A live checkpoint whose prefix repeats a voter passes every checksum;
// restore must refuse it rather than hand the serve front-end an engine
// whose first query throws.
TEST_F(ServeTest, RestoreRefusesLivePrefixWithRepeatedVoter) {
  const data::Story& s = test_corpus().corpus.front_page.front();
  ASSERT_GE(s.vote_count(), 3u);
  stream::StreamEngine writer(test_corpus().corpus.network,
                              test_stream_params());
  const auto slot = writer.live_submit(s.id, s.voters()[0], s.times()[0]);
  writer.live_vote(slot, s.voters()[1], s.times()[1]);
  writer.live_vote(slot, s.voters()[2], s.times()[2]);
  writer.note_events_applied(3);
  // One story: SERVE_STORIES' prefix voters start at byte 24 (three u32
  // columns padded to 16, then one f64). Make vote 2 repeat voter 1.
  std::vector<data::snapfmt::Section> sections = writer.checkpoint_sections();
  ASSERT_EQ(sections.size(), 3u);
  std::vector<char> body = sections[2].body.bytes();
  std::memcpy(body.data() + 24 + 8, body.data() + 24 + 4, 4);
  sections[2].body = {};
  sections[2].body.raw(body.data(), body.size());
  const auto ckpt = dir_ / "repeat.ckpt";
  data::snapfmt::write_section_file(ckpt, sections);

  Server server(test_corpus().corpus.network, test_serve_params());
  try {
    server.restore_checkpoint(ckpt);
    FAIL() << "expected the repeated live voter to be rejected";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what())
                  .find("checkpoint live prefix repeats a voter"),
              std::string::npos)
        << err.what();
  }
  EXPECT_EQ(server.engine().story_count(), 0u);
}

// A client that pipelines requests and hangs up without reading the
// replies used to kill the process: the next reply write raised SIGPIPE.
TEST_F(ServeTest, ClientHangingUpUnreadDoesNotKillTheServer) {
  ServeParams params = test_serve_params();
  params.checkpoint_path = dir_ / "drain.ckpt";
  Server server(test_corpus().corpus.network, params);
  const auto port = server.start();
  {
    std::vector<char> wire;
    for (int i = 0; i < 20000; ++i) encode(QueryStateMsg{424242}, wire);
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_all(fd, wire.data(), wire.size()));
    ::close(fd);
  }

  // A second client is still served in full.
  const auto load = test_load(30, 40);
  std::vector<char> wire;
  encode_load(load, 0, total_events(load), wire);
  FrameDecoder decoder;
  const int fd = drive_events(port, wire, decoder);
  ASSERT_GE(fd, 0);
  expect_matches_oracle(fd, decoder, load);
  ::close(fd);

  server.request_stop();
  server.wait();
  EXPECT_EQ(server.engine().events_applied(), total_events(load));
  Server probe(test_corpus().corpus.network, test_serve_params());
  probe.restore_checkpoint(params.checkpoint_path);
  EXPECT_EQ(probe.engine().events_applied(), total_events(load));
}

// ---------------------------------------------------------------------------
// Backpressure: a two-cell ring is full almost all the time, so the
// front-end spends the load yield-retrying; nothing may be lost, reordered
// or left unanswered.

TEST_F(ServeTest, FullRingLosesNothingAcrossTwoConnections) {
  const auto load = test_load(40, 60);
  const auto ckpt = dir_ / "drain.ckpt";
  ServeParams params = test_serve_params();
  params.ring_capacity = 2;
  params.checkpoint_path = ckpt;
  Server server(test_corpus().corpus.network, params);
  const auto port = server.start();
  obs::Counter& backpressure =
      obs::Registry::global().counter("serve.backpressure");
  const std::uint64_t backpressure_before = backpressure.value();

  struct Client {
    int fd = -1;
    FrameDecoder decoder;
    std::vector<char> out;
    std::uint32_t next_token = 1;
    std::size_t unanswered = 0;
  };
  Client conns[2];
  for (Client& c : conns) {
    c.fd = connect_loopback(port);
    ASSERT_GE(c.fd, 0);
  }
  // The order this test writes events in, which the oracle replays.
  stream::StreamEngine oracle(test_corpus().corpus.network,
                              test_stream_params());
  std::vector<std::uint32_t> slot_of(load.size());
  auto queue_events = [&](std::size_t story, std::size_t begin,
                          std::size_t end) {
    Client& c = conns[story % 2];
    const data::Story& s = *load[story].story;
    for (std::size_t k = begin; k < end; ++k) {
      if (k == 0) {
        encode(SubmitMsg{s.id, s.voters()[0], s.times()[0]}, c.out);
        slot_of[story] = oracle.live_submit(s.id, s.voters()[0], s.times()[0]);
      } else {
        encode(VoteMsg{s.id, s.voters()[k], s.times()[k]}, c.out);
        oracle.live_vote(slot_of[story], s.voters()[k], s.times()[k]);
      }
      oracle.note_events_applied(1);
    }
  };
  auto send_with_sync = [&](Client& c) {
    encode(SyncMsg{c.next_token++}, c.out);
    ASSERT_TRUE(write_all(c.fd, c.out.data(), c.out.size()));
    c.out.clear();
    ++c.unanswered;
  };
  auto await_syncs = [&](Client& c) {
    std::vector<Message> replies;
    std::string error;
    ASSERT_TRUE(read_messages(c.fd, c.decoder, replies, c.unanswered, error))
        << error;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const auto* r = std::get_if<SyncReplyMsg>(&replies[i]);
      ASSERT_NE(r, nullptr);
      EXPECT_EQ(r->token, c.next_token - c.unanswered + i);
    }
    c.unanswered = 0;
  };

  // Story i travels on connection i % 2. Its submit and first half go out
  // once every earlier submit is answered, which fixes the slot order; the
  // second half races the other connection's next story.
  for (std::size_t i = 0; i < load.size(); ++i) {
    Client& own = conns[i % 2];
    Client& other = conns[1 - i % 2];
    const std::size_t half = (load[i].events + 1) / 2;
    queue_events(i, 0, half);
    send_with_sync(own);
    if (i > 0) {
      queue_events(i - 1, (load[i - 1].events + 1) / 2, load[i - 1].events);
      send_with_sync(other);
    }
    await_syncs(own);
    await_syncs(other);
  }
  const std::size_t last = load.size() - 1;
  queue_events(last, (load[last].events + 1) / 2, load[last].events);
  send_with_sync(conns[last % 2]);
  await_syncs(conns[last % 2]);

  for (Client& c : conns) ::close(c.fd);
  server.request_stop();
  server.wait();
  EXPECT_GT(backpressure.value(), backpressure_before);
  EXPECT_EQ(server.engine().events_applied(), total_events(load));
  expect_same_result(server.engine().result(), oracle.result());

  Server probe(test_corpus().corpus.network, test_serve_params());
  probe.restore_checkpoint(ckpt);
  expect_same_result(probe.engine().result(), oracle.result());
}

// ---------------------------------------------------------------------------
// Kill/resume: a drain checkpoint restored into a fresh server must end in
// a state bit-identical to an uninterrupted run.

TEST_F(ServeTest, KillResumeCheckpointBitIdenticalToUninterrupted) {
  const auto load = test_load(40, 40);
  const std::size_t events = total_events(load);
  const std::size_t cut = events / 2;  // cuts mid-story on purpose

  auto run_server = [&](const std::filesystem::path& ckpt,
                        const std::filesystem::path& restore,
                        std::size_t begin_event, std::size_t end_event) {
    ServeParams params = test_serve_params();
    params.checkpoint_path = ckpt;
    Server server(test_corpus().corpus.network, params);
    if (!restore.empty()) server.restore_checkpoint(restore);
    const auto port = server.start();
    std::vector<char> wire;
    encode_load(load, begin_event, end_event, wire);
    FrameDecoder decoder;
    const int fd = drive_events(port, wire, decoder);
    ASSERT_GE(fd, 0);
    ::close(fd);
    server.request_stop();
    server.wait();
    EXPECT_EQ(server.engine().events_applied(), end_event);
  };

  const auto ckpt_half = dir_ / "half.ckpt";
  const auto ckpt_resumed = dir_ / "resumed.ckpt";
  const auto ckpt_straight = dir_ / "straight.ckpt";

  run_server(ckpt_half, {}, 0, cut);              // killed at the cut
  run_server(ckpt_resumed, ckpt_half, cut, events);  // restored, finished
  run_server(ckpt_straight, {}, 0, events);       // never interrupted

  const std::string resumed = read_file(ckpt_resumed);
  const std::string straight = read_file(ckpt_straight);
  ASSERT_FALSE(resumed.empty());
  EXPECT_EQ(resumed, straight) << "drain checkpoints diverged";

  // And the checkpoint is genuinely restorable.
  ServeParams params = test_serve_params();
  Server probe(test_corpus().corpus.network, params);
  probe.restore_checkpoint(ckpt_resumed);
  EXPECT_EQ(probe.engine().events_applied(), events);
}

// ---------------------------------------------------------------------------
// Periodic background checkpoints: written off the hot path, atomically
// replace each other, and restore while the server keeps serving.

TEST_F(ServeTest, PeriodicCheckpointIsRestorableMidServe) {
  const auto load = test_load(50, 40);
  const auto ckpt = dir_ / "periodic.ckpt";
  ServeParams params = test_serve_params();
  params.checkpoint_ms = 20;
  params.checkpoint_path = ckpt;
  Server server(test_corpus().corpus.network, params);
  const auto port = server.start();

  std::vector<char> wire;
  encode_load(load, 0, total_events(load), wire);
  FrameDecoder decoder;
  const int fd = drive_events(port, wire, decoder);
  ASSERT_GE(fd, 0);

  // Wait for a background checkpoint to land (cadence 20ms; generous cap).
  bool restored = false;
  for (int attempt = 0; attempt < 200 && !restored; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (!std::filesystem::exists(ckpt)) continue;
    try {
      Server probe(test_corpus().corpus.network, test_serve_params());
      probe.restore_checkpoint(ckpt);
      EXPECT_GT(probe.engine().story_count(), 0u);
      restored = true;
    } catch (const std::exception&) {
      // A checkpoint from before the sync barrier can be mid-cadence; the
      // next attempt sees a newer file.
    }
  }
  EXPECT_TRUE(restored) << "no restorable background checkpoint appeared";

  ::close(fd);
  server.request_stop();
  server.wait();
  EXPECT_EQ(server.engine().events_applied(), total_events(load));
}

// The drain checkpoint and the periodic writer both write `<path>.tmp`, so
// a drain must not meet a periodic write in flight: that fails one of the
// renames ("checkpoint failed" in the log) and can tear the drain
// checkpoint. Each round drains while 1 ms periodic writes run.
TEST_F(ServeTest, DrainCheckpointIsWholeWhilePeriodicWritesRun) {
  const auto load = test_load(200, 1000);
  std::vector<char> wire;
  encode_load(load, 0, total_events(load), wire);
  const auto ckpt = dir_ / "drain.ckpt";
  std::vector<std::string> failures;
  obs::set_log_sink([&failures](std::string_view line) {
    if (line.find("checkpoint failed") != std::string_view::npos)
      failures.emplace_back(line);
  });
  struct SinkReset {
    ~SinkReset() { obs::set_log_sink(nullptr); }
  } sink_reset;
  for (int round = 0; round < 50; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ServeParams params = test_serve_params();
    params.checkpoint_ms = 1;
    params.checkpoint_path = ckpt;
    Server server(test_corpus().corpus.network, params);
    const auto port = server.start();
    FrameDecoder decoder;
    const int fd = drive_events(port, wire, decoder);
    ASSERT_GE(fd, 0);
    ::close(fd);
    server.request_stop();
    server.wait();

    Server probe(test_corpus().corpus.network, test_serve_params());
    EXPECT_NO_THROW(probe.restore_checkpoint(ckpt));
    EXPECT_EQ(probe.engine().events_applied(), total_events(load));
  }
  EXPECT_TRUE(failures.empty()) << failures.size() << " failed writes, first: "
                                << failures.front();
}

// Every periodic checkpoint holds a whole sequence prefix: restored, it
// equals a serial live engine fed exactly the first events_applied()
// events in wire order, down to the checkpoint bytes. The wire is the
// corpus in time order, as the site saw it, so consecutive events land on
// scattered shards.
TEST_F(ServeTest, PeriodicCheckpointsArePrefixesOfTheWireOrder) {
  const auto load = test_load(200, 1000);
  struct WireEvent {
    std::uint32_t story;  // index into load
    std::uint32_t k;      // 0 = the submit
  };
  std::vector<WireEvent> order;
  for (std::uint32_t i = 0; i < load.size(); ++i)
    for (std::uint32_t k = 0; k < load[i].events; ++k) order.push_back({i, k});
  auto time_of = [&](const WireEvent& e) {
    return load[e.story].story->times()[e.k];
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](const WireEvent& a, const WireEvent& b) {
                     return time_of(a) < time_of(b);
                   });
  std::vector<char> wire;
  for (const WireEvent& e : order) {
    const data::Story& s = *load[e.story].story;
    if (e.k == 0)
      encode(SubmitMsg{s.id, s.voters()[0], s.times()[0]}, wire);
    else
      encode(VoteMsg{s.id, s.voters()[e.k], s.times()[e.k]}, wire);
  }

  const auto ckpt = dir_ / "periodic.ckpt";
  ServeParams params = test_serve_params();
  params.checkpoint_ms = 1;
  params.checkpoint_path = ckpt;
  Server server(test_corpus().corpus.network, params);
  const auto port = server.start();
  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  // Writes of a few frames keep events flowing through every drain cycle
  // while checkpoints land; each distinct file seen meanwhile is kept
  // (tmp + rename: the file is always complete).
  constexpr std::size_t kWriteBytes = 16 * 21;
  std::vector<std::string> seen;
  for (std::size_t off = 0, writes = 0; off < wire.size();
       off += kWriteBytes, ++writes) {
    const std::size_t n = std::min(kWriteBytes, wire.size() - off);
    ASSERT_TRUE(write_all(fd, wire.data() + off, n));
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    if (writes % 32 != 0) continue;
    std::string bytes = read_file(ckpt);
    if (!bytes.empty() && (seen.empty() || bytes != seen.back()))
      seen.push_back(std::move(bytes));
  }
  FrameDecoder decoder;
  std::string error;
  ASSERT_TRUE(sync_barrier(fd, decoder, 1, error)) << error;
  ::close(fd);
  server.request_stop();
  server.wait();
  ASSERT_EQ(server.engine().events_applied(), order.size());

  stream::StreamEngine oracle(test_corpus().corpus.network,
                              test_stream_params());
  std::vector<std::uint32_t> slot_of(load.size());
  std::size_t fed = 0;
  std::size_t mid_load = 0;
  const auto probe_path = dir_ / "probe.ckpt";
  for (const std::string& bytes : seen) {
    {
      std::ofstream out(probe_path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    Server probe(test_corpus().corpus.network, test_serve_params());
    probe.restore_checkpoint(probe_path);
    const std::uint64_t n = probe.engine().events_applied();
    SCOPED_TRACE("checkpoint at " + std::to_string(n) + " events");
    ASSERT_GE(n, fed);  // checkpoints only move forward
    ASSERT_LE(n, order.size());
    for (; fed < n; ++fed) {
      const WireEvent& e = order[fed];
      const data::Story& s = *load[e.story].story;
      if (e.k == 0)
        slot_of[e.story] = oracle.live_submit(s.id, s.voters()[0], s.times()[0]);
      else
        oracle.live_vote(slot_of[e.story], s.voters()[e.k], s.times()[e.k]);
      oracle.note_events_applied(1);
    }
    if (n > 0 && n < order.size()) ++mid_load;
    expect_same_result(probe.engine().result(), oracle.result());
    data::snapfmt::write_section_file(probe_path,
                                      oracle.checkpoint_sections());
    EXPECT_EQ(read_file(probe_path), bytes) << "checkpoint bytes diverged";
  }
  EXPECT_GE(mid_load, 3u) << "too few checkpoints landed mid-load";
}

}  // namespace
}  // namespace digg::serve
