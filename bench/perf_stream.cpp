// Streaming-engine benchmark: replay the standard calibrated corpus as one
// time-ordered vote stream and report ingest throughput (votes/sec), plus
// the checkpoint save/restore cost that makes a replay killable. A batch
// feature-extraction pass over the same stories runs for scale: both call
// the same prefix routines (core/prefix_visibility.h), the engine as each
// checkpoint vote lands, so the two wall clocks bound what "pay per vote"
// vs "pay per recompute" buys. Restore validates and commits; it rebuilds
// no per-story state.
//
// With --json <path> the metrics snapshot (stream.votes_ingested,
// stream.state_bytes, checkpoint latency histograms, and the
// stream.bench_* gauges below) plus wall clock land in the
// BENCH_stream.json perf-trajectory format consumed by scripts/ci.sh's
// bench-regression gate.

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/core/features.h"
#include "src/obs/exporter.h"
#include "src/obs/perf.h"
#include "src/stream/checkpoint.h"
#include "src/stream/engine.h"
#include "src/stream/source.h"

namespace {

template <typename F>
double best_of_ms(int reps, F&& work) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    work();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace digg;
  namespace fs = std::filesystem;
  // --serve-ms <n>: after measuring, keep the process (and its
  // DIGG_METRICS_PORT exporter) alive for n ms so CI can scrape it.
  // Stripped here because make_context rejects flags it doesn't know.
  long serve_ms = 0;
  std::vector<char*> args(argv, argv + argc);
  for (std::size_t i = 1; i + 1 < args.size(); ++i) {
    if (std::strcmp(args[i], "--serve-ms") == 0) {
      serve_ms = std::strtol(args[i + 1], nullptr, 10);
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      break;
    }
  }
  bench::Context ctx =
      bench::make_context(static_cast<int>(args.size()), args.data(),
                          "Stream engine: vote ingest throughput");
  const data::Corpus& corpus = ctx.synthetic.corpus;
  constexpr int kReps = 5;

  const stream::EventStream es = stream::build_event_stream(corpus);
  const double votes = static_cast<double>(es.total_events());
  std::printf("events: %zu over %zu stories\n\n",
              static_cast<std::size_t>(es.total_events()),
              es.stories.size());

  const double init_ms = best_of_ms(
      kReps, [&] { stream::StreamEngine e(es, corpus.network); });
  const double replay_ms = best_of_ms(kReps, [&] {
    stream::StreamEngine e(es, corpus.network);
    e.run_all();
    if (e.events_applied() != es.total_events()) std::abort();
  });
  const double votes_per_sec = votes / (replay_ms / 1e3);

  // Hardware-counter pass: one extra full replay under a perf_event group.
  // Invalid readings (no PMU, paranoid kernel) publish nothing, so the
  // stream.bench_ipc / _cache_miss_pct gauges simply vanish from the JSON
  // on machines that cannot measure them.
  obs::PerfReading perf_reading;
  {
    obs::PerfCounters counters;
    counters.start();
    stream::StreamEngine e(es, corpus.network);
    e.run_all();
    perf_reading = counters.stop();
  }
  if (perf_reading.valid && perf_reading.cycles != 0) {
    obs::Registry::global().gauge("stream.bench_ipc").set(perf_reading.ipc());
    if (perf_reading.cache_references != 0)
      obs::Registry::global()
          .gauge("stream.bench_cache_miss_pct")
          .set(perf_reading.cache_miss_pct());
  }

  const double batch_ms = best_of_ms(kReps, [&] {
    const auto rows = core::extract_features(corpus.front_page, corpus.network);
    if (rows.size() != corpus.front_page.size()) std::abort();
  });

  // Online Bayes-fit replay: same stream with the Gamma-Poisson fit hook
  // armed. The gated gauge is the *marginal* cost per vote — the hook's
  // O(1)-amortised discipline is the acceptance bar, so it is expressed in
  // ns/vote rather than as a second throughput number.
  const double bayes_replay_ms = best_of_ms(kReps, [&] {
    stream::StreamParams bp;
    bp.bayes.enabled = true;
    stream::StreamEngine e(es, corpus.network, bp);
    e.run_all();
    if (e.events_applied() != es.total_events()) std::abort();
  });
  const double bayes_ns_per_vote = bayes_replay_ms * 1e6 / votes;

  stream::StreamEngine engine(es, corpus.network);
  engine.run_until(es.total_events() / 2);
  const fs::path dir = fs::temp_directory_path() /
                       ("digg_perf_stream_" + std::to_string(::getpid()));
  const fs::path ckpt = dir / "mid.ckpt";
  const double save_ms =
      best_of_ms(kReps, [&] { engine.save_checkpoint(ckpt); });
  const double restore_ms =
      best_of_ms(kReps, [&] { engine.restore_checkpoint(ckpt); });
  std::error_code ec;
  const auto ckpt_bytes = fs::file_size(ckpt, ec);
  fs::remove_all(dir, ec);

  std::printf("engine init (O(stories) checks):      %8.2f ms\n", init_ms);
  std::printf("full replay:                          %8.2f ms  (%.0f votes/s)\n",
              replay_ms, votes_per_sec);
  std::printf("batch feature extraction (front page):%8.2f ms\n", batch_ms);
  std::printf("replay with Bayes fit hook:           %8.2f ms  (%.0f ns/vote)\n",
              bayes_replay_ms, bayes_ns_per_vote);
  std::printf("checkpoint save:                      %8.2f ms  (%zu bytes)\n",
              save_ms, static_cast<std::size_t>(ec ? 0 : ckpt_bytes));
  std::printf("checkpoint restore (validated):       %8.2f ms\n", restore_ms);
  if (perf_reading.valid && perf_reading.cycles != 0)
    std::printf("replay IPC:                           %8.2f  (%.1f%% cache miss)\n",
                perf_reading.ipc(), perf_reading.cache_miss_pct());

  // Gauges for the perf trajectory: bench_check.py flags regressions on
  // these (higher is better for throughput, lower for latencies).
  auto& reg = obs::Registry::global();
  reg.gauge("stream.bench_votes_per_sec").set(votes_per_sec);
  reg.gauge("stream.bench_replay_ms").set(replay_ms);
  reg.gauge("stream.bench_checkpoint_save_ms").set(save_ms);
  reg.gauge("stream.bench_checkpoint_restore_ms").set(restore_ms);
  reg.gauge("stream.bayes_fit_ns_per_vote").set(bayes_ns_per_vote);

  if (serve_ms > 0) {
    std::printf("serving metrics for %ld ms (exporter port %u)\n", serve_ms,
                static_cast<unsigned>(obs::exporter_port()));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(serve_ms));
  }
  return 0;
}
