// Serve-path benchmark: sustained multi-client vote ingest against a live
// Server, then a query-latency pass — the numbers the serve ingest gate
// rides on. The server and its clients run in one process (so the shared
// obs registry carries the server-side histograms into the JSON report),
// but all traffic crosses real loopback TCP through the real epoll
// front-end, frame decoder, MPSC ring, and shard-parallel apply.
//
// Gated gauges (scripts/bench_check.py):
//   serve.ingest_votes_per_sec  sustained throughput, sync-to-sync
//                               (higher is better)
//   serve.query_us_p99          tail latency of the online cascade-state /
//                               prediction queries (derived from the
//                               serve.query_us histogram)
//
// Usage: perf_serve [seed] [--scenario <name>] [--json <path>] [--votes <n>]

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/serve/client.h"
#include "src/serve/server.h"

int main(int argc, char** argv) {
  using namespace digg;

  long total_votes = 2'000'000;
  std::vector<char*> args(argv, argv + argc);
  for (std::size_t i = 1; i + 1 < args.size(); ++i) {
    if (std::strcmp(args[i], "--votes") == 0) {
      total_votes = std::strtol(args[i + 1], nullptr, 10);
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      break;
    }
  }
  const bench::Context ctx =
      bench::make_context(static_cast<int>(args.size()), args.data(),
                          "Serve: sustained multi-client ingest");
  const graph::Digraph& network = ctx.synthetic.corpus.network;
  const auto users = static_cast<std::uint32_t>(network.node_count());

  constexpr std::uint32_t kConnections = 4;
  constexpr std::uint32_t kStories = 64;  // one per engine shard
  constexpr std::uint32_t kQueries = 2000;
  const auto votes_per_story =
      static_cast<std::uint64_t>(total_votes) / kStories;

  serve::ServeParams params;  // no checkpointing
  serve::Server server(network, params);
  const std::uint16_t port = server.start();

  auto fail = [&](const std::string& what) -> int {
    std::fprintf(stderr, "perf_serve: %s\n", what.c_str());
    server.request_stop();
    server.wait();
    return 1;
  };
  // Spreads voter ids over the graph without an RNG in the hot loop. The
  // first 64 votes of a story get voters distinct within that story (the
  // engine rejects duplicate voters below its checkpoint horizon); past
  // the horizon votes are bare counter bumps and any voter id works.
  auto voter_at = [users](std::uint32_t story, std::uint64_t k) {
    if (k < 64) return static_cast<std::uint32_t>((story * 64 + k) % users);
    return static_cast<std::uint32_t>((k * 2654435761ull) % users);
  };

  // --- Submit phase: one story per shard, then a barrier. ----------------
  std::string error;
  const int ctrl = serve::connect_loopback(port);
  if (ctrl < 0) return fail("connect failed");
  serve::FrameDecoder ctrl_decoder;
  {
    std::vector<char> frames;
    for (std::uint32_t s = 0; s < kStories; ++s)
      serve::encode(serve::SubmitMsg{s + 1, voter_at(s, 0), 0.0}, frames);
    if (!serve::write_all(ctrl, frames.data(), frames.size()) ||
        !serve::sync_barrier(ctrl, ctrl_decoder, 0, error))
      return fail("submit phase: " + error);
  }

  // --- Ingest phase: pre-encoded vote streams, one story set per
  // connection, measured sync-to-sync (so the clock covers apply
  // completion, not just socket writes). -----------------------------------
  std::vector<std::vector<char>> send_buf(kConnections);
  for (std::uint32_t s = 0; s < kStories; ++s) {
    auto& buf = send_buf[s % kConnections];
    for (std::uint64_t k = 0; k < votes_per_story; ++k)
      serve::encode(serve::VoteMsg{s + 1, voter_at(s, k + 1),
                                   0.001 * static_cast<double>(k + 1)},
                    buf);
  }
  const std::uint64_t votes_sent = votes_per_story * kStories;

  std::vector<std::string> conn_error(kConnections);
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      const int fd = serve::connect_loopback(port);
      if (fd < 0) {
        conn_error[c] = "connect failed";
        return;
      }
      serve::FrameDecoder decoder;
      const auto& buf = send_buf[c];
      if (!serve::write_all(fd, buf.data(), buf.size()))
        conn_error[c] = "vote write failed";
      else
        serve::sync_barrier(fd, decoder, c + 1, conn_error[c]);
      ::close(fd);
    });
  }
  for (auto& t : threads) t.join();
  const double ingest_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& e : conn_error)
    if (!e.empty()) return fail("ingest phase: " + e);

  const double votes_per_sec = static_cast<double>(votes_sent) / ingest_s;
  obs::Registry::global()
      .gauge("serve.ingest_votes_per_sec")
      .set(votes_per_sec);
  std::printf("ingest: %llu votes over %u connections in %.3fs  (%.2fM/s)\n",
              static_cast<unsigned long long>(votes_sent), kConnections,
              ingest_s, votes_per_sec / 1e6);

  // --- Query phase: state + prediction round-robin over the stories; the
  // server-side serve.query_us histogram yields the gated _p99. -----------
  {
    std::vector<char> frames;
    for (std::uint32_t q = 0; q < kQueries; ++q) {
      const std::uint32_t id = (q % kStories) + 1;
      if (q % 2 == 0)
        serve::encode(serve::QueryStateMsg{id}, frames);
      else
        serve::encode(serve::QueryPredictMsg{id}, frames);
    }
    const auto q0 = std::chrono::steady_clock::now();
    if (!serve::write_all(ctrl, frames.data(), frames.size()))
      return fail("query write failed");
    std::vector<serve::Message> replies;
    if (!serve::read_messages(ctrl, ctrl_decoder, replies, kQueries, error))
      return fail("query phase: " + error);
    const double query_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - q0)
            .count();
    std::printf("queries: %u in %.3fs (round-trip, batched)\n", kQueries,
                query_s);
  }
  ::close(ctrl);

  server.request_stop();
  server.wait();

  if (server.engine().events_applied() !=
      static_cast<std::uint64_t>(kStories) + votes_sent) {
    std::fprintf(stderr, "perf_serve: applied %llu events, expected %llu\n",
                 static_cast<unsigned long long>(
                     server.engine().events_applied()),
                 static_cast<unsigned long long>(kStories + votes_sent));
    return 1;
  }
  std::printf("\nserve.ingest_votes_per_sec %.0f\n", votes_per_sec);
  return 0;
}
