// Library micro-benchmarks (google-benchmark): the hot paths of the
// reproduction pipeline — graph construction, visibility/influence updates,
// cascade extraction, the vote simulator, and C4.5 training — plus
// thread-scaling sweeps of the parallel runtime (Arg = DIGG_THREADS).
//
// `--json <path>` (ours, stripped before google-benchmark sees argv) dumps
// the obs metrics snapshot plus total wall clock as the BENCH_<name>.json
// perf-trajectory format; scripts/bench_snapshot.sh uses it to refresh
// BENCH_parallel.json at the repo root.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>

#include "src/obs/metrics.h"

#include "src/core/cascade.h"
#include "src/core/experiment.h"
#include "src/core/influence.h"
#include "src/core/predictor.h"
#include "src/data/synthetic.h"
#include "src/dynamics/vote_model.h"
#include "src/graph/generators.h"
#include "src/ml/c45.h"
#include "src/ml/validation.h"
#include "src/runtime/thread_pool.h"
#include "src/stats/bootstrap.h"

namespace {

using namespace digg;

const data::SyntheticCorpus& corpus() {
  static const data::SyntheticCorpus c = [] {
    stats::Rng rng(42);
    data::SyntheticParams params;
    params.user_count = 8000;
    params.story_count = 300;
    params.vote_model.step = 2.0;
    return data::generate_corpus(params, rng);
  }();
  return c;
}

void BM_GraphBuildPreferentialAttachment(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    stats::Rng rng(7);
    graph::PreferentialAttachmentParams params;
    params.node_count = n;
    benchmark::DoNotOptimize(graph::preferential_attachment(params, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GraphBuildPreferentialAttachment)->Arg(1000)->Arg(10000);

void BM_CascadeExtraction(benchmark::State& state) {
  const auto& c = corpus().corpus;
  for (auto _ : state) {
    std::size_t acc = 0;
    for (const auto& story : c.front_page)
      acc += core::in_network_votes(story, c.network, 10);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.front_page.size()));
}
BENCHMARK(BM_CascadeExtraction);

void BM_InfluenceProfile(benchmark::State& state) {
  const auto& c = corpus().corpus;
  for (auto _ : state) {
    std::size_t acc = 0;
    for (const auto& story : c.front_page)
      acc += core::influence_profile(story, c.network, {1, 11, 21}).back();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.front_page.size()));
}
BENCHMARK(BM_InfluenceProfile);

void BM_VoteSimulatorOneStory(benchmark::State& state) {
  stats::Rng net_rng(5);
  graph::PreferentialAttachmentParams net_params;
  net_params.node_count = 8000;
  const graph::Digraph network =
      graph::preferential_attachment(net_params, net_rng);
  const platform::Site site(network, std::vector<platform::UserProfile>(8000),
                            platform::make_june2006_policy());
  dynamics::VoteModelParams params;
  params.step = 2.0;
  const dynamics::VoteSimulator sim(site, params, stats::Rng(9));
  for (auto _ : state) {
    platform::StoryState story = site.submit(0, 0, 0.6, 0.0);
    benchmark::DoNotOptimize(sim.run_story(story, {0.6, 0.5}));
  }
}
BENCHMARK(BM_VoteSimulatorOneStory);

void BM_C45Training(benchmark::State& state) {
  const auto& c = corpus().corpus;
  const auto features = core::extract_features(c.front_page, c.network);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::InterestingnessPredictor::train(features));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(features.size()));
}
BENCHMARK(BM_C45Training);

void BM_FeatureExtraction(benchmark::State& state) {
  const auto& c = corpus().corpus;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extract_features(c.front_page, c.network));
  }
}
BENCHMARK(BM_FeatureExtraction);

// ------------------------------------------------------- thread scaling --
// Arg(k) pins the runtime to k threads (overriding DIGG_THREADS) for the
// measurement; results are bit-identical across args, only wall time moves.
// UseRealTime: the work happens on pool threads, CPU time of the driving
// thread is meaningless.

class ThreadSweep : public benchmark::Fixture {
 public:
  void SetUp(benchmark::State& state) override {
    runtime::set_default_threads(static_cast<unsigned>(state.range(0)));
  }
  void TearDown(benchmark::State&) override {
    runtime::set_default_threads(0);
  }
};

BENCHMARK_DEFINE_F(ThreadSweep, Fig3aInfluence)(benchmark::State& state) {
  const auto& c = corpus().corpus;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fig3a_influence(c));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.front_page.size()));
}
BENCHMARK_REGISTER_F(ThreadSweep, Fig3aInfluence)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

BENCHMARK_DEFINE_F(ThreadSweep, CrossValidation)(benchmark::State& state) {
  // Front page + upcoming: both label classes, 10x the training rows of the
  // front page alone, so each fold trains a non-trivial tree.
  const auto& c = corpus().corpus;
  std::vector<data::Story> stories = c.front_page;
  stories.insert(stories.end(), c.upcoming.begin(), c.upcoming.end());
  const auto features = core::extract_features(stories, c.network);
  for (auto _ : state) {
    stats::Rng rng(17);
    benchmark::DoNotOptimize(core::cross_validate_predictor(
        features, core::FeatureSet::kPaper, 10, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(features.size()));
}
BENCHMARK_REGISTER_F(ThreadSweep, CrossValidation)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

BENCHMARK_DEFINE_F(ThreadSweep, BootstrapMeanCi)(benchmark::State& state) {
  std::vector<double> data(2000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<double>(i % 97) / 97.0;
  for (auto _ : state) {
    stats::Rng rng(23);
    benchmark::DoNotOptimize(
        stats::bootstrap_mean_ci(data, 2000, 0.95, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
BENCHMARK_REGISTER_F(ThreadSweep, BootstrapMeanCi)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const auto start = std::chrono::steady_clock::now();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) {
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    // Seed 42 is the fixed corpus seed above.
    if (!digg::obs::write_bench_report(json_path, "perf_micro", 42, wall_ms))
      return 1;
  }
  return 0;
}
