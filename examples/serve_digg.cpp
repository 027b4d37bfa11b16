// Live vote-ingest daemon: a digg-like site front door over the streaming
// engine. Builds the scenario's social network, trains the paper's (v10,
// fans1) C4.5 classifier on the front page, arms the online Bayes fit, and
// then serves the binary ingest protocol (src/serve/protocol.h) on
// 127.0.0.1 — submits and votes stream in over TCP, cascade state and
// promotion predictions stream back out, checkpoints land in the background.
// SIGTERM (or --serve-ms expiring) drains gracefully: every accepted event
// is applied and a final checkpoint is written before exit.
//
// Usage: serve_digg [seed] [--scenario <name>] [--json <path>]
//                   [--checkpoint <path>] [--restore <path>]
//                   [--inspect <path>] [--serve-ms <n>] [--smoke]
//
//   --checkpoint <path>  checkpoint target (periodic cadence comes from
//                        DIGG_CHECKPOINT_MS; the drain checkpoint is
//                        always written when a path is set)
//   --restore <path>     restore a previous drain checkpoint before serving
//   --inspect <path>     do not serve: validate that the checkpoint is
//                        restorable (full restore into a fresh engine) and
//                        print its meta, then exit
//   --serve-ms <n>       stop serving after n ms (CI watchdog)
//   --smoke              smoke-test defaults: caps --serve-ms at 30000 so a
//                        lost SIGTERM cannot hang a CI job
//
// A checkpoint that --restore or --inspect cannot load (missing, torn,
// foreign) is refused: `error: <reason>` on stderr, exit status 1.
//
// Environment:
//   DIGG_SERVE_PORT      listen port (default 0 = ephemeral)
//   DIGG_CHECKPOINT_MS   background checkpoint cadence in ms (default 0)
//   A malformed or out-of-range value warns and keeps the default.
//
// Every checkpoint, periodic or drain, holds exactly the first N accepted
// events (src/serve/server.h), so a restored run resumes a whole prefix.
//
// Prints `DIGG_SERVE_PORT_BOUND=<port>` on stdout once listening — the
// parseable hand-off scripts/ci.sh's serve smoke consumes.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/core/features.h"
#include "src/core/predictor.h"
#include "src/serve/server.h"
#include "src/stream/checkpoint.h"

namespace {

std::atomic<digg::serve::Server*> g_server{nullptr};
std::atomic<bool> g_stop{false};

void handle_term(int) {
  g_stop.store(true);
  if (auto* s = g_server.load()) s->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace digg;

  std::string checkpoint_path, restore_path, inspect_path;
  bool smoke = false;
  long serve_ms = 0;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    auto take_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--checkpoint") == 0) {
      checkpoint_path = take_value("--checkpoint");
    } else if (std::strcmp(argv[i], "--restore") == 0) {
      restore_path = take_value("--restore");
    } else if (std::strcmp(argv[i], "--inspect") == 0) {
      inspect_path = take_value("--inspect");
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--serve-ms") == 0) {
      serve_ms = std::strtol(take_value("--serve-ms"), nullptr, 10);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (smoke && (serve_ms <= 0 || serve_ms > 30000)) serve_ms = 30000;

  const bench::Context ctx =
      bench::make_context(static_cast<int>(args.size()), args.data(),
                          "Live vote-ingest server");
  const data::Corpus& corpus = ctx.synthetic.corpus;

  // The online hooks: the §5.2 tree trained on the promoted stories, and
  // the Gamma-Poisson rate fit racing it — both fire per incoming vote.
  const std::vector<core::StoryFeatures> training =
      core::extract_features(corpus.front_page, corpus.network);
  const core::InterestingnessPredictor predictor =
      core::InterestingnessPredictor::train(training);

  serve::ServeParams params;
  params.stream.predictor = &predictor;
  params.stream.bayes.enabled = true;
  params.checkpoint_path = checkpoint_path;
  serve::read_env(params);

  auto refuse = [](const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  };

  if (!inspect_path.empty()) {
    // Restorability proof, not just a header peek: a fresh engine must
    // accept the checkpoint end to end (fingerprint, config, prefixes).
    try {
      const stream::CheckpointInfo info =
          stream::read_checkpoint_info(inspect_path);
      serve::Server probe(corpus.network, params);
      probe.restore_checkpoint(inspect_path);
      std::printf(
          "checkpoint ok: version=%u live=%d events=%llu stories=%llu "
          "fingerprint=%016llx\n",
          info.version, info.live ? 1 : 0,
          static_cast<unsigned long long>(info.events_applied),
          static_cast<unsigned long long>(info.story_count),
          static_cast<unsigned long long>(info.fingerprint));
    } catch (const std::exception& e) {
      return refuse(e);
    }
    return 0;
  }

  serve::Server server(corpus.network, params);
  if (!restore_path.empty()) {
    try {
      server.restore_checkpoint(restore_path);
    } catch (const std::exception& e) {
      return refuse(e);
    }
    std::printf("restored: events=%llu stories=%u\n",
                static_cast<unsigned long long>(
                    server.engine().events_applied()),
                server.engine().story_count());
  }

  g_server.store(&server);
  struct sigaction sa{};
  sa.sa_handler = handle_term;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  const std::uint16_t port = server.start();
  std::printf("DIGG_SERVE_PORT_BOUND=%u\n", static_cast<unsigned>(port));
  std::fflush(stdout);

  std::thread watchdog;
  if (serve_ms > 0) {
    watchdog = std::thread([&server, serve_ms] {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(serve_ms);
      while (!g_stop.load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      server.request_stop();
    });
  }

  server.wait();
  g_server.store(nullptr);
  if (watchdog.joinable()) {
    g_stop.store(true);
    watchdog.join();
  }

  std::printf("drained: events=%llu stories=%u%s%s\n",
              static_cast<unsigned long long>(
                  server.engine().events_applied()),
              server.engine().story_count(),
              checkpoint_path.empty() ? "" : " checkpoint=",
              checkpoint_path.c_str());
  return 0;
}
