// Corpus storage benchmark: CSV load vs binary snapshot save/load on the
// standard calibrated corpus, plus a large-corpus leg that exercises the
// out-of-core pipeline end to end: stream-generate a million-user corpus
// straight to disk (bounded RSS), load it (mapped zero-copy, verified and
// validated), and replay its votes through the stream engine — straight
// through, and killed at half the stream, checkpointed and resumed, which
// must reach the straight run's result. The straight run's feature rows
// must also equal core::extract_features on the mapped corpus: the
// batch/stream contract where hub fan rows are longest. Either mismatch
// makes the bench exit 1.
//
// The snapshot format exists to make repeated analysis runs cheap, so the
// numbers that matter are the load-path speedup (acceptance bar: snapshot
// load at least 5x faster than CSV load) and the large-corpus load time.
//
// With --json <path> the metrics snapshot plus wall clock land in the
// BENCH_corpus_io.json perf-trajectory format: data.snapshot_save_bytes, the
// data.snapshot_{load,save}_us histograms (this bench observes each
// default-corpus snapshot load into data.snapshot_load_us itself),
// data.corpus_vote_column_bytes, the gated gauges
// data.snapshot_mmap_load_us / data.generation_peak_rss /
// stream.bench_votes_per_sec from the large leg, and
// data.scenario_gen_votes_per_sec from the scenario-engine leg.
//
// Extra flags (stripped before the common seed/--json parsing):
//   --large-users N    users in the large leg            (default 1000000)
//   --large-stories N  stories in the large leg          (default 400)
//   --skip-large       skip the large leg entirely (quick local runs; the
//                      gated large-leg gauges are then not emitted)

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <vector>

#include "bench/common.h"
#include "src/core/features.h"
#include "src/data/io.h"
#include "src/data/snapshot.h"
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

  // Strip the flags common.h does not know before make_context sees argv.
  std::size_t large_users = 1000000;
  std::size_t large_stories = 400;
  bool skip_large = false;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const auto size_arg = [&](const char* flag, std::size_t& out) {
      if (std::strcmp(argv[i], flag) != 0) return false;
      std::uint64_t v = 0;
      if (i + 1 >= argc || !bench::parse_seed_strict(argv[i + 1], v) ||
          v == 0) {
        std::fprintf(stderr, "%s: %s wants a positive integer\n", argv[0],
                     flag);
        std::exit(2);
      }
      out = static_cast<std::size_t>(v);
      ++i;
      return true;
    };
    if (std::strcmp(argv[i], "--skip-large") == 0)
      skip_large = true;
    else if (!size_arg("--large-users", large_users) &&
             !size_arg("--large-stories", large_stories))
      passthrough.push_back(argv[i]);
  }

  bench::Context ctx =
      bench::make_context(static_cast<int>(passthrough.size()),
                          passthrough.data(),
                          "Corpus I/O: CSV vs snapshot");
  const data::Corpus& corpus = ctx.synthetic.corpus;
  std::printf("total votes: %zu\n\n", corpus.vote_store.total_votes());

  const fs::path dir = fs::temp_directory_path() /
                       ("digg_perf_corpus_io_" + std::to_string(::getpid()));
  const fs::path csv_dir = dir / "csv";
  const fs::path snap_path = dir / "corpus.snap";
  constexpr int kReps = 5;

  const double csv_save_ms =
      best_of_ms(kReps, [&] { data::save_corpus(corpus, csv_dir); });
  const double csv_load_ms = best_of_ms(kReps, [&] {
    const data::Corpus c = data::load_corpus(csv_dir);
    if (c.story_count() != corpus.story_count()) std::abort();
  });
  const double snap_save_ms =
      best_of_ms(kReps, [&] { data::save_snapshot(corpus, snap_path); });
  obs::Histogram& load_us =
      obs::Registry::global().histogram("data.snapshot_load_us");
  const double snap_load_ms = best_of_ms(kReps, [&] {
    const auto t0 = std::chrono::steady_clock::now();
    const data::Corpus c = data::load_snapshot_mmap(snap_path);
    load_us.observe(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    if (c.story_count() != corpus.story_count()) std::abort();
  });

  std::uintmax_t csv_bytes = 0;
  for (const char* name :
       {"network.csv", "stories.csv", "votes.csv", "top_users.csv"})
    csv_bytes += fs::file_size(csv_dir / name);
  const std::uintmax_t snap_bytes = fs::file_size(snap_path);

  std::printf("path                best of %d     size\n", kReps);
  std::printf("CSV save        %10.1f ms  %7.1f MiB\n", csv_save_ms,
              static_cast<double>(csv_bytes) / (1024.0 * 1024.0));
  std::printf("CSV load        %10.1f ms\n", csv_load_ms);
  std::printf("snapshot save   %10.1f ms  %7.1f MiB\n", snap_save_ms,
              static_cast<double>(snap_bytes) / (1024.0 * 1024.0));
  std::printf("snapshot load   %10.1f ms\n\n", snap_load_ms);
  const double speedup = csv_load_ms / snap_load_ms;
  std::printf("snapshot load speedup over CSV load: %.1fx %s\n", speedup,
              speedup >= 5.0 ? "(meets the 5x bar)" : "(BELOW the 5x bar)");
  fs::remove_all(dir);

  // Scenario-engine generation throughput: the stochastic model is the
  // expensive registered model (per-user consideration clocks instead of
  // closed-form channels), so its votes/sec is the gated number — a
  // regression here means the pluggable-model seam got slower, not just
  // one figure bench.
  {
    data::ScenarioSpec spec =
        data::make_scenario("stochastic", ctx.synthetic.seed);
    data::downscale(spec, 4000, 120);
    std::size_t scenario_votes = 0;
    const double scen_ms = best_of_ms(3, [&] {
      stats::Rng rng(spec.seed);
      const data::SyntheticCorpus sc =
          data::generate_corpus(spec.params, rng);
      scenario_votes = sc.corpus.vote_store.total_votes();
      if (sc.corpus.story_count() != spec.params.story_count) std::abort();
    });
    const double scen_votes_per_sec =
        static_cast<double>(scenario_votes) / (scen_ms / 1000.0);
    obs::Registry::global()
        .gauge("data.scenario_gen_votes_per_sec")
        .set(scen_votes_per_sec);
    std::printf(
        "\nscenario generation (stochastic, %zu users): %10.1f ms  "
        "(%zu votes, %.0f votes/s)\n",
        spec.params.user_count, scen_ms, scenario_votes,
        scen_votes_per_sec);
  }

  if (!skip_large) {
    // The out-of-core leg: generation never holds the vote columns, the
    // load is a metadata parse, parallel chunk checksums and validation,
    // and the replay streams straight off the mapping.
    std::printf("\n-- large corpus: %zu users, %zu stories --\n", large_users,
                large_stories);
    const fs::path big_path = fs::temp_directory_path() /
                              ("digg_perf_corpus_io_large_" +
                               std::to_string(::getpid()) + ".snap");
    data::SyntheticParams big;
    big.user_count = large_users;
    big.network.node_count = large_users;
    big.story_count = large_stories;

    stats::Rng rng(ctx.synthetic.seed);
    const auto g0 = std::chrono::steady_clock::now();
    const data::StreamedCorpusInfo info =
        data::generate_corpus_to_snapshot(big, rng, big_path);
    const double gen_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - g0)
                              .count();
    const double peak_rss =
        obs::Registry::global().gauge("data.generation_peak_rss").value();
    std::printf(
        "streamed generation  %10.1f ms  %7.1f MiB file  %zu votes  "
        "peak RSS %.0f MiB\n",
        gen_ms,
        static_cast<double>(fs::file_size(big_path)) / (1024.0 * 1024.0),
        static_cast<std::size_t>(info.total_votes),
        peak_rss / (1024.0 * 1024.0));

    const double big_load_ms = best_of_ms(3, [&] {
      const data::Corpus c = data::load_snapshot_mmap(big_path);
      if (c.story_count() != info.story_count) std::abort();
    });
    // Gate the large-corpus number: it is the load the out-of-core
    // pipeline pays before every analysis.
    obs::Registry::global()
        .gauge("data.snapshot_mmap_load_us")
        .set(big_load_ms * 1000.0);
    std::printf("snapshot load        %10.1f ms\n", big_load_ms);

    const data::Corpus big_corpus = data::load_snapshot_mmap(big_path);
    const stream::EventStream es = stream::build_event_stream(big_corpus);
    const double replay_ms = best_of_ms(3, [&] {
      stream::StreamEngine engine(es, big_corpus.network);
      engine.run_all();
      if (engine.events_applied() != es.total_events()) std::abort();
    });
    const double votes_per_sec =
        static_cast<double>(es.total_events()) / (replay_ms / 1000.0);
    obs::Registry::global()
        .gauge("stream.bench_votes_per_sec")
        .set(votes_per_sec);
    std::printf("stream replay        %10.1f ms  (%.2fM votes/s)%s\n",
                replay_ms, votes_per_sec / 1e6,
                votes_per_sec >= 2e6 ? "" : "  (BELOW the 2M/s bar)");

    // The kill/resume path at scale: run_all never cuts the stream, so cut
    // it at half, checkpoint, restore into a fresh engine, finish, and
    // require exactly the straight run's result.
    const fs::path ckpt_path = big_path.string() + ".ckpt";
    stream::StreamEngine straight(es, big_corpus.network);
    straight.run_all();
    // The stream's slots are the front page, then the upcoming queue.
    std::vector<core::StoryFeatures> batch =
        core::extract_features(big_corpus.front_page, big_corpus.network);
    const std::vector<core::StoryFeatures> upcoming =
        core::extract_features(big_corpus.upcoming, big_corpus.network);
    batch.insert(batch.end(), upcoming.begin(), upcoming.end());
    const bool features_ok =
        stream::to_story_features(straight.result()) == batch;
    std::printf("batch features       %s\n",
                features_ok ? "match the straight replay"
                            : "DIFFER from the straight replay");
    double cut_ms = 0.0;
    {
      stream::StreamEngine first(es, big_corpus.network);
      const auto c0 = std::chrono::steady_clock::now();
      first.run_until(es.total_events() / 2);
      cut_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - c0)
                   .count();
      first.save_checkpoint(ckpt_path);
    }
    // Restore to first vote: a fresh engine over the built stream, the
    // restore, and the next event applied. Reported, not gated.
    const auto r0 = std::chrono::steady_clock::now();
    stream::StreamEngine resumed(es, big_corpus.network);
    resumed.restore_checkpoint(ckpt_path);
    resumed.run_until(resumed.events_applied() + 1);
    const double first_vote_ms = std::chrono::duration<double, std::milli>(
                                     std::chrono::steady_clock::now() - r0)
                                     .count();
    resumed.run_all();
    const bool resumed_ok = resumed.result() == straight.result();
    std::printf("kill/resume replay   %10.1f ms to half  %s\n", cut_ms,
                resumed_ok ? "matches the straight run"
                           : "DIFFERS from the straight run");
    std::printf("restore to 1st vote  %10.1f ms  (engine + restore + one "
                "event)\n",
                first_vote_ms);
    fs::remove(ckpt_path);
    fs::remove(big_path);
    if (!resumed_ok || !features_ok) return 1;
  }

  return speedup >= 5.0 ? 0 : 1;
}
