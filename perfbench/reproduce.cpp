// reproduce: the researcher's batch pipeline at 2 threads.
//   generate_corpus_to_snapshot -> load_snapshot_mmap -> fig3a, fig3b,
//   fig4, fig5
// Every pass's figures must equal a reference that setup computes from an
// in-memory generate_corpus at the same seed.

#include <filesystem>
#include <system_error>

#include "common.h"
#include "measure.h"
#include "src/data/snapshot.h"
#include "src/data/synthetic.h"
#include "src/dynamics/vote_model.h"
#include "src/graph/generators.h"
#include "src/runtime/parallel.h"
#include "src/runtime/thread_pool.h"
#include "trace.h"

namespace perfbench {

using namespace digg;
namespace fs = std::filesystem;

namespace {

struct Figures {
  core::Fig3aResult a;
  core::Fig3bResult b;
  core::Fig4Result c;
  core::Fig5Result d;
};

// `fig3a_done_ns`, when given, receives the time fig3a's result is ready.
Figures run_figures(const data::Corpus& corpus, std::uint64_t seed,
                    std::int64_t* fig3a_done_ns = nullptr) {
  Figures f;
  {
    ScopedSpan s("core.fig3a_influence");
    f.a = core::fig3a_influence(corpus);
  }
  if (fig3a_done_ns != nullptr) *fig3a_done_ns = now_ns();
  {
    ScopedSpan s("core.fig3b_cascades");
    f.b = core::fig3b_cascades(corpus);
  }
  {
    ScopedSpan s("core.fig4_innetwork_vs_final");
    f.c = core::fig4_innetwork_vs_final(corpus);
  }
  {
    ScopedSpan s("ml.fig5_prediction");
    stats::Rng rng = fig5_rng(seed);
    f.d = core::fig5_prediction(corpus, {}, rng);
  }
  return f;
}

struct State {
  data::ScenarioSpec spec;
  std::uint64_t reference = 0;  // figures digest
  std::uint64_t votes = 0;
  fs::path snapshot;
};

State setup(const Options& opts) {
  State st;
  st.spec = legacy_scenario(opts.seed);
  stats::Rng rng(st.spec.seed);
  const data::SyntheticCorpus syn = data::generate_corpus(st.spec.params, rng);
  const Figures f = run_figures(syn.corpus, st.spec.seed);
  st.reference = figures_digest(f.a, f.b, f.c, f.d);
  for (const auto* list : {&syn.corpus.front_page, &syn.corpus.upcoming})
    for (const data::Story& s : *list) st.votes += s.vote_count();
  st.snapshot = opts.work_dir / "reproduce.diggsnap";
  return st;
}

struct Pass {
  double total_s = 0.0;
  double first_result_s = 0.0;  // until fig3a's result is ready
  bool ok = false;
};

Pass run_pass(const State& st) {
  Pass p;
  ScopedSpan root("reproduce.pass");
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan s("data.generate_corpus_to_snapshot");
    stats::Rng rng(st.spec.seed);
    (void)data::generate_corpus_to_snapshot(st.spec.params, rng, st.snapshot);
  }
  std::uint64_t digest = 0;
  {
    data::Corpus corpus;
    {
      ScopedSpan s("data.load_snapshot_mmap");
      corpus = data::load_snapshot_mmap(st.snapshot);
    }
    std::int64_t fig3a_done = 0;
    const Figures f = run_figures(corpus, st.spec.seed, &fig3a_done);
    p.first_result_s = seconds_between(t0, fig3a_done);
    digest = figures_digest(f.a, f.b, f.c, f.d);
    ScopedSpan s("data.unmap");
    corpus = data::Corpus();
  }
  p.total_s = seconds_between(t0, now_ns());
  p.ok = digest == st.reference;
  return p;
}

}  // namespace

RunResult run_reproduce(const Options& opts) {
  runtime::set_default_threads(kReproduceThreads);
  RunResult r;
  std::vector<double> setups;
  State st;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::int64_t t0 = now_ns();
    st = setup(opts);
    setups.push_back(seconds_between(t0, now_ns()));
  }
  r.check(run_pass(st).ok);  // warm-up

  std::vector<double> pass_s, votes_per_s, first_ms;
  const std::int64_t start = now_ns();
  while (pass_s.size() < 3 || seconds_between(start, now_ns()) < opts.seconds) {
    const Pass p = run_pass(st);
    r.check(p.ok);
    pass_s.push_back(p.total_s);
    votes_per_s.push_back(static_cast<double>(st.votes) / p.total_s);
    first_ms.push_back(p.first_result_s * 1e3);
  }
  std::error_code ec;
  fs::remove(st.snapshot, ec);
  log_values("setup_s", setups);
  log_values("pass_s", pass_s);
  r.metrics["setup_s"] = median(setups);
  r.metrics["pass_s"] = median(pass_s);
  r.metrics["votes_per_s"] = median(votes_per_s);
  r.metrics["ack_p50_ms"] = median(first_ms);
  return r;
}

RunResult trace_reproduce(const Options& opts) {
  constexpr int kPairs = 3;
  runtime::set_default_threads(kReproduceThreads);
  Tracer& tracer = Tracer::global();
  RunResult r;
  const State st = setup(opts);
  r.check(run_pass(st).ok);  // warm-up

  // Untraced and traced passes alternate, so drift hits both sides alike.
  std::vector<double> untraced, traced;
  HistogramWindow queue_wait("runtime.queue_wait_us");
  for (int i = 0; i < kPairs; ++i) {
    Pass p = run_pass(st);
    r.check(p.ok);
    untraced.push_back(p.total_s);
    tracer.enable(true);
    p = run_pass(st);
    tracer.enable(false);
    r.check(p.ok);
    traced.push_back(p.total_s);
  }
  const double queue_wait_p50 = queue_wait.quantile(0.5);
  const double utilization =
      obs::Registry::global().gauge("runtime.pool_utilization").value();

  const PassBreakdown b = breakdown(tracer.spans(), "reproduce.pass");
  auto med_ms = [&](const char* name) { return median(b.per_pass_ms.at(name)); };

  // Isolated layer probes.
  std::vector<double> network_ms;
  for (int i = 0; i < 3; ++i) {
    stats::Rng rng(st.spec.seed);
    const std::int64_t t0 = now_ns();
    const graph::Digraph g =
        graph::preferential_attachment(st.spec.params.network, rng);
    network_ms.push_back(seconds_between(t0, now_ns()) * 1e3);
  }
  std::vector<double> dispatch_us;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t t0 = now_ns();
    runtime::parallel_for(64, [](std::size_t) {}, {.grain = 1});
    dispatch_us.push_back(seconds_between(t0, now_ns()) * 1e6);
  }
  double snapshot_mib = 0.0;
  {
    std::error_code ec;
    snapshot_mib =
        static_cast<double>(fs::file_size(st.snapshot, ec)) / (1 << 20);
  }
  runtime::set_default_threads(1);
  const Pass single = run_pass(st);
  r.check(single.ok);
  runtime::set_default_threads(kReproduceThreads);
  std::error_code ec;
  fs::remove(st.snapshot, ec);

  const double generate_s = med_ms("data.generate_corpus_to_snapshot") / 1e3;
  const double ticks = static_cast<double>(st.spec.params.story_count) *
                       st.spec.params.vote_model.horizon /
                       st.spec.params.vote_model.step;
  auto& m = r.metrics;
  m["data.generate_s"] = generate_s;
  m["dynamics.ns_per_tick"] = generate_s * 1e9 / ticks;
  m["graph.network_ms"] = median(network_ms);
  m["data.mmap_load_ms"] = med_ms("data.load_snapshot_mmap");
  m["data.snapshot_mib"] = snapshot_mib;
  m["core.fig3a_ms"] = med_ms("core.fig3a_influence");
  m["core.fig3b_ms"] = med_ms("core.fig3b_cascades");
  m["core.fig4_ms"] = med_ms("core.fig4_innetwork_vs_final");
  m["ml.fig5_ms"] = med_ms("ml.fig5_prediction");
  m["runtime.pool_utilization"] = utilization;
  m["runtime.queue_wait_us_p50"] = queue_wait_p50;
  m["runtime.dispatch_us"] = median(dispatch_us);
  m["reproduce.pass_1t_s"] = single.total_s;
  m["reproduce.explained_frac"] = median(b.explained);
  m["reproduce.trace_overhead_frac"] =
      (median(traced) - median(untraced)) / median(untraced);

  add_row(r, "reproduce (%u threads): pass %.3f s untraced, %.3f s traced, "
          "%.3f s at 1 thread; %.1f%% of traced wall time in layer spans",
          kReproduceThreads, median(untraced), median(traced), single.total_s,
          100.0 * median(b.explained));
  add_span_table(r, b);
  add_row(r, "  isolated: preferential_attachment %.1f ms, empty 64-task "
          "parallel_for %.2f us, %.2f ns per simulated tick",
          m["graph.network_ms"], m["runtime.dispatch_us"],
          m["dynamics.ns_per_tick"]);
  return r;
}

}  // namespace perfbench
