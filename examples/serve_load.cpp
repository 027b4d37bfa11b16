// Load driver for serve_digg: replays a scenario corpus AT the server over
// several TCP connections — submits + votes in, then a sync barrier, then a
// cascade-state and a promotion-prediction query per story. With --verify
// it applies the identical events to a local live-mode engine and demands
// the server's replies match field for field: an end-to-end proof that the
// ingest path (frames -> ring -> shard-parallel apply) computes exactly
// what a single-threaded engine would.
//
// Stories are partitioned across connections (a story's votes must arrive
// in time order, so one story never spans two sockets); cross-story
// interleaving is whatever TCP delivers. The server applies them in the
// order it accepted them, shards in parallel, and per-story state cannot
// observe the order across stories, so any interleaving must verify.
//
// Usage: serve_load [seed] [--scenario <name>] --port <p>
//                   [--connections <n>] [--stories <n>] [--votes <n>]
//                   [--verify] [--smoke]
//
//   --port <p>         serve_digg's bound port (required)
//   --connections <n>  parallel client connections (default 4)
//   --stories <n>      stories to submit (default 400)
//   --votes <n>        max votes per story incl. the submit (default 50)
//   --verify           compare every reply against a local engine
//   --smoke            CI smoke defaults: 120 stories, 3 connections,
//                      --verify on, and at least one v10 prediction demanded

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/core/features.h"
#include "src/core/predictor.h"
#include "src/serve/client.h"
#include "src/stream/engine.h"

using namespace digg;
using serve::connect_loopback;
using serve::read_messages;
using serve::write_all;

int main(int argc, char** argv) {
  long port = 0, connections = 4, max_stories = 400, max_votes = 50;
  bool verify = false, smoke = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    auto take_long = [&](const char* flag) -> long {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        std::exit(2);
      }
      return std::strtol(argv[++i], nullptr, 10);
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      port = take_long("--port");
    } else if (std::strcmp(argv[i], "--connections") == 0) {
      connections = take_long("--connections");
    } else if (std::strcmp(argv[i], "--stories") == 0) {
      max_stories = take_long("--stories");
    } else if (std::strcmp(argv[i], "--votes") == 0) {
      max_votes = take_long("--votes");
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (smoke) {
    verify = true;
    max_stories = 120;
    connections = 3;
  }
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "%s: --port is required\n", argv[0]);
    return 2;
  }
  if (connections < 1) connections = 1;

  const bench::Context ctx =
      bench::make_context(static_cast<int>(args.size()), args.data(),
                          "Serve load driver");
  const data::Corpus& corpus = ctx.synthetic.corpus;

  // The load: real corpus stories (upcoming first — they carry the v10
  // checkpoint crossings the prediction queries care about), truncated to
  // max_votes events each.
  struct Load {
    const data::Story* story;
    std::size_t events;  // submit + votes to send
  };
  std::vector<Load> load;
  for (const auto* list : {&corpus.upcoming, &corpus.front_page}) {
    for (const data::Story& s : *list) {
      if (static_cast<long>(load.size()) >= max_stories) break;
      const std::size_t events =
          std::min(s.vote_count(), static_cast<std::size_t>(max_votes));
      if (events == 0) continue;
      load.push_back({&s, events});
    }
  }
  std::size_t total_events = 0;
  for (const Load& l : load) total_events += l.events;
  std::printf("load: %zu stories, %zu events, %ld connections\n\n",
              load.size(), total_events, connections);

  // Pre-encode each connection's event frames (story i -> connection
  // i % connections, so per-story order survives).
  std::vector<std::vector<char>> send_buf(
      static_cast<std::size_t>(connections));
  for (std::size_t i = 0; i < load.size(); ++i) {
    auto& buf = send_buf[i % static_cast<std::size_t>(connections)];
    const data::Story& v = *load[i].story;
    serve::encode(serve::SubmitMsg{v.id, v.voters()[0], v.times()[0]}, buf);
    for (std::size_t k = 1; k < load[i].events; ++k)
      serve::encode(serve::VoteMsg{v.id, v.voters()[k], v.times()[k]}, buf);
  }

  // Drive. Each connection: events, sync barrier, then per-story state +
  // predict queries.
  struct ConnResult {
    bool ok = false;
    std::string error;
    std::vector<serve::StateReplyMsg> states;     // by owned-story order
    std::vector<serve::PredictReplyMsg> predicts;
  };
  std::vector<ConnResult> results(static_cast<std::size_t>(connections));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (long c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ConnResult& r = results[static_cast<std::size_t>(c)];
      const int fd = connect_loopback(static_cast<std::uint16_t>(port));
      if (fd < 0) {
        r.error = "connect failed";
        return;
      }
      serve::FrameDecoder decoder;
      std::vector<serve::Message> replies;
      do {
        const auto& buf = send_buf[static_cast<std::size_t>(c)];
        if (!write_all(fd, buf.data(), buf.size())) {
          r.error = "event write failed";
          break;
        }
        std::vector<char> frame;
        serve::encode(serve::SyncMsg{static_cast<std::uint32_t>(c)}, frame);
        if (!write_all(fd, frame.data(), frame.size())) {
          r.error = "sync write failed";
          break;
        }
        if (!read_messages(fd, decoder, replies, 1, r.error)) break;
        if (!std::holds_alternative<serve::SyncReplyMsg>(replies[0])) {
          r.error = "expected sync reply";
          break;
        }
        // Queries for every story this connection owns.
        frame.clear();
        std::size_t owned = 0;
        for (std::size_t i = static_cast<std::size_t>(c); i < load.size();
             i += static_cast<std::size_t>(connections)) {
          const std::uint32_t id = load[i].story->id;
          serve::encode(serve::QueryStateMsg{id}, frame);
          serve::encode(serve::QueryPredictMsg{id}, frame);
          ++owned;
        }
        if (!write_all(fd, frame.data(), frame.size())) {
          r.error = "query write failed";
          break;
        }
        replies.clear();
        if (!read_messages(fd, decoder, replies, owned * 2, r.error)) break;
        r.ok = true;
        for (const serve::Message& m : replies) {
          if (const auto* s = std::get_if<serve::StateReplyMsg>(&m))
            r.states.push_back(*s);
          else if (const auto* p = std::get_if<serve::PredictReplyMsg>(&m))
            r.predicts.push_back(*p);
          else {
            r.ok = false;
            r.error = "unexpected reply type";
            break;
          }
        }
        if (r.ok && (r.states.size() != owned || r.predicts.size() != owned)) {
          r.ok = false;
          r.error = "reply count mismatch";
        }
      } while (false);
      ::close(fd);
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  for (long c = 0; c < connections; ++c) {
    if (!results[static_cast<std::size_t>(c)].ok) {
      std::fprintf(stderr, "connection %ld failed: %s\n", c,
                   results[static_cast<std::size_t>(c)].error.c_str());
      return 1;
    }
  }
  std::printf("sent %zu events in %.3fs (%.0f events/sec)\n", total_events,
              wall_s, static_cast<double>(total_events) / wall_s);

  std::size_t v10_predictions = 0;
  for (const ConnResult& r : results)
    for (const serve::PredictReplyMsg& p : r.predicts)
      if (p.has_c45) ++v10_predictions;
  std::printf("v10 predictions made: %zu\n", v10_predictions);
  if (smoke && v10_predictions == 0) {
    std::fprintf(stderr, "smoke: expected at least one v10 prediction\n");
    return 1;
  }

  if (!verify) return 0;

  // Local oracle: same events through a single-threaded live engine. Per-
  // story outcomes are independent of cross-story order, so story-major
  // application here must match whatever interleaving the server saw.
  const std::vector<core::StoryFeatures> training =
      core::extract_features(corpus.front_page, corpus.network);
  const core::InterestingnessPredictor predictor =
      core::InterestingnessPredictor::train(training);
  stream::StreamParams sp;
  sp.predictor = &predictor;
  sp.bayes.enabled = true;
  stream::StreamEngine oracle(corpus.network, sp);
  for (const Load& l : load) {
    const data::Story& v = *l.story;
    const auto slot = oracle.live_submit(v.id, v.voters()[0], v.times()[0]);
    for (std::size_t k = 1; k < l.events; ++k)
      oracle.live_vote(slot, v.voters()[k], v.times()[k]);
    oracle.note_events_applied(l.events);
  }

  std::size_t mismatches = 0;
  for (long c = 0; c < connections; ++c) {
    const ConnResult& r = results[static_cast<std::size_t>(c)];
    std::size_t j = 0;
    for (std::size_t i = static_cast<std::size_t>(c); i < load.size();
         i += static_cast<std::size_t>(connections), ++j) {
      const auto expect =
          oracle.query_story(static_cast<std::uint32_t>(i));
      const serve::StateReplyMsg& st = r.states[j];
      const serve::PredictReplyMsg& pr = r.predicts[j];
      bool ok = st.found == 1 && st.story_id == expect.id &&
                st.votes == expect.final_votes &&
                st.fans1 == expect.fans1 &&
                st.cascade.size() == expect.cascade.size() &&
                st.promoted == (expect.promoted_time.has_value() ? 1 : 0) &&
                st.promoted_time == expect.promoted_time.value_or(0.0);
      for (std::size_t k = 0; ok && k < st.cascade.size(); ++k)
        ok = st.cascade[k] == expect.cascade[k];
      ok = ok && pr.found == 1 &&
           pr.has_c45 == (expect.predicted_interesting.has_value() ? 1 : 0) &&
           pr.c45_yes ==
               (expect.predicted_interesting.value_or(false) ? 1 : 0) &&
           pr.has_bayes == (expect.bayes_interesting.has_value() ? 1 : 0) &&
           pr.bayes_yes == (expect.bayes_interesting.value_or(false) ? 1 : 0) &&
           pr.bayes_expected_final == expect.bayes_expected_final;
      if (!ok) {
        ++mismatches;
        if (mismatches <= 5)
          std::fprintf(stderr,
                       "mismatch story id=%u: server votes=%llu fans1=%u "
                       "vs local votes=%zu fans1=%zu\n",
                       st.story_id,
                       static_cast<unsigned long long>(st.votes), st.fans1,
                       expect.final_votes, expect.fans1);
      }
    }
  }
  std::printf("verify vs local engine: %zu mismatching stories%s\n",
              mismatches, mismatches == 0 ? " (exact)" : "");
  return mismatches == 0 ? 0 : 1;
}
