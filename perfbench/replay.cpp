// replay: the killable early-prediction replay at 1 thread. For each of
// the run's corpora in turn, a pass builds a StreamEngine with the
// fig5-trained C4.5 predictor and the Bayes hook armed, runs to half the
// stream, checkpoints, restores into a fresh engine and finishes. Every
// StreamResult must equal an uninterrupted reference run, and that
// reference must match batch core::extract_features.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <system_error>

#include "common.h"
#include "measure.h"
#include "src/core/predictor.h"
#include "src/data/snapshot.h"
#include "src/data/synthetic.h"
#include "src/digg/hybrid_set.h"
#include "src/ml/flat_tree.h"
#include "src/runtime/thread_pool.h"
#include "src/stream/source.h"
#include "trace.h"

namespace perfbench {

using namespace digg;
namespace fs = std::filesystem;

namespace {

struct State {
  data::Corpus corpus;  // mmapped snapshot
  core::InterestingnessPredictor predictor;
  stream::EventStream events;
  stream::StreamParams params;
  stream::StreamResult reference;
  bool reference_matches_batch = false;
  fs::path checkpoint;
};

bool same_features(const core::StoryFeatures& a, const core::StoryFeatures& b) {
  return a.story == b.story && a.submitter == b.submitter && a.v6 == b.v6 &&
         a.v10 == b.v10 && a.v20 == b.v20 && a.fans1 == b.fans1 &&
         a.influence10 == b.influence10 && a.final_votes == b.final_votes &&
         a.interesting == b.interesting;
}

// Fills `st` for the run's corpus `j` (not movable: the engine params point
// at st.predictor and the event stream aliases st.corpus).
void setup_corpus(const Options& opts, int j, State& st) {
  const data::ScenarioSpec spec = legacy_scenario(corpus_seed(opts.seed, j));
  const std::string tag = "replay" + std::to_string(j);
  const fs::path snapshot = opts.work_dir / (tag + ".diggsnap");
  {
    stats::Rng rng(spec.seed);
    (void)data::generate_corpus_to_snapshot(spec.params, rng, snapshot);
  }
  st.corpus = data::load_snapshot_mmap(snapshot);
  {
    stats::Rng rng = fig5_rng(spec.seed);
    st.predictor = core::fig5_prediction(st.corpus, {}, rng).predictor;
  }
  st.events = stream::build_event_stream(st.corpus);
  st.params = stream::StreamParams{};
  st.params.predictor = &st.predictor;
  st.params.bayes.enabled = true;
  st.checkpoint = opts.work_dir / (tag + ".ckpt");

  stream::StreamEngine engine(st.events, st.corpus.network, st.params);
  engine.run_all();
  st.reference = engine.result();

  std::vector<core::StoryFeatures> batch =
      core::extract_features(st.corpus.front_page, st.corpus.network);
  const std::vector<core::StoryFeatures> upcoming =
      core::extract_features(st.corpus.upcoming, st.corpus.network);
  batch.insert(batch.end(), upcoming.begin(), upcoming.end());
  const std::vector<core::StoryFeatures> streamed =
      stream::to_story_features(st.reference, st.params);
  st.reference_matches_batch = batch.size() == streamed.size();
  for (std::size_t i = 0; st.reference_matches_batch && i < batch.size(); ++i)
    st.reference_matches_batch = same_features(batch[i], streamed[i]);
}

struct Pass {
  double total_s = 0.0;
  double resume_s = 0.0;  // kill (checkpoint save) until restored
  std::size_t state_bytes = 0;
  bool ok = false;
};

Pass run_pass(const State& st) {
  Pass p;
  stream::StreamResult result;
  {
    ScopedSpan root("replay.pass");
    const std::int64_t t0 = now_ns();
    std::int64_t kill = 0;
    {
      std::optional<stream::StreamEngine> first;
      {
        ScopedSpan s("stream.init");
        first.emplace(st.events, st.corpus.network, st.params);
      }
      {
        ScopedSpan s("stream.run");
        first->run_until(st.events.total_events() / 2);
      }
      kill = now_ns();
      ScopedSpan s("stream.save_checkpoint");
      first->save_checkpoint(st.checkpoint);
    }
    std::optional<stream::StreamEngine> resumed;
    {
      ScopedSpan s("stream.init");
      resumed.emplace(st.events, st.corpus.network, st.params);
    }
    {
      ScopedSpan s("stream.restore_checkpoint");
      resumed->restore_checkpoint(st.checkpoint);
    }
    p.resume_s = seconds_between(kill, now_ns());
    {
      ScopedSpan s("stream.run");
      resumed->run_all();
    }
    {
      ScopedSpan s("stream.result");
      result = resumed->result();
    }
    p.state_bytes = resumed->state_bytes();
    ScopedSpan s("stream.teardown");
    resumed.reset();
    p.total_s = seconds_between(t0, now_ns());
  }
  p.ok = same_result(result, st.reference);
  return p;
}

using Corpora = std::vector<std::unique_ptr<State>>;

Corpora setup(const Options& opts) {
  Corpora cs;
  for (int j = 0; j < kCorpora; ++j) {
    cs.push_back(std::make_unique<State>());
    setup_corpus(opts, j, *cs.back());
  }
  return cs;
}

// One pass: the kill/resume replay of every corpus in turn.
struct PassSet {
  double total_s = 0.0;
  std::vector<double> resume_ms;
  bool ok = true;
};

PassSet run_passes(const Corpora& cs) {
  PassSet out;
  for (const auto& st : cs) {
    const Pass p = run_pass(*st);
    out.total_s += p.total_s;
    out.resume_ms.push_back(p.resume_s * 1e3);
    out.ok = out.ok && p.ok;
  }
  return out;
}

std::uint64_t total_votes(const Corpora& cs) {
  std::uint64_t n = 0;
  for (const auto& st : cs) n += st->events.total_events();
  return n;
}

// Full replay (no kill) with the given Bayes setting; milliseconds.
double plain_run_ms(const State& st, bool bayes) {
  stream::StreamParams params = st.params;
  params.bayes.enabled = bayes;
  stream::StreamEngine engine(st.events, st.corpus.network, params);
  const std::int64_t t0 = now_ns();
  engine.run_all();
  return seconds_between(t0, now_ns()) * 1e3;
}

}  // namespace

RunResult run_replay(const Options& opts) {
  runtime::set_default_threads(kReplayThreads);
  RunResult r;
  std::vector<double> setups;
  Corpora cs;
  for (int j = 0; j < kCorpora; ++j) {
    const std::int64_t t0 = now_ns();
    cs.push_back(std::make_unique<State>());
    setup_corpus(opts, j, *cs.back());
    setups.push_back(seconds_between(t0, now_ns()));
  }
  for (const auto& st : cs) r.check(st->reference_matches_batch);
  r.check(run_passes(cs).ok);  // warm-up

  std::vector<double> pass_s, votes_per_s, resume_ms;
  const double votes = static_cast<double>(total_votes(cs));
  const std::int64_t start = now_ns();
  while (pass_s.size() < 3 || seconds_between(start, now_ns()) < opts.seconds) {
    const PassSet p = run_passes(cs);
    r.check(p.ok);
    pass_s.push_back(p.total_s);
    votes_per_s.push_back(votes / p.total_s);
    double sum = 0.0;
    for (const double ms : p.resume_ms) sum += ms;
    resume_ms.push_back(sum / static_cast<double>(p.resume_ms.size()));
  }
  log_values("setup_s", setups);
  log_values("pass_s", pass_s);
  r.metrics["setup_s"] = median(setups);
  r.metrics["pass_s"] = median(pass_s);
  r.metrics["votes_per_s"] = median(votes_per_s);
  r.metrics["ack_p50_ms"] = median(resume_ms);
  return r;
}

RunResult trace_replay(const Options& opts) {
  constexpr int kPairs = 5;
  runtime::set_default_threads(kReplayThreads);
  Tracer& tracer = Tracer::global();
  RunResult r;
  const Corpora cs = setup(opts);
  const State& st = *cs.front();  // the isolated probes use corpus 0
  for (const auto& c : cs) r.check(c->reference_matches_batch);
  r.check(run_passes(cs).ok);  // warm-up

  CounterWindow rebuilds("stream.vis_rebuilds");
  CounterWindow evictions("stream.vis_evictions");
  std::vector<double> untraced, traced;
  for (int i = 0; i < kPairs; ++i) {
    PassSet p = run_passes(cs);
    r.check(p.ok);
    untraced.push_back(p.total_s);
    tracer.enable(true);
    p = run_passes(cs);
    tracer.enable(false);
    r.check(p.ok);
    traced.push_back(p.total_s);
  }
  const Pass corpus0 = run_pass(st);
  r.check(corpus0.ok);
  const std::size_t state_bytes = corpus0.state_bytes;
  std::error_code ec;
  const double checkpoint_bytes =
      static_cast<double>(fs::file_size(st.checkpoint, ec));

  const PassBreakdown b = breakdown(tracer.spans(), "replay.pass");

  // Where the visibility-set rebuilds happen in a kill/resume pass.
  double rebuilds_restore = 0, rebuilds_resumed_run = 0, rebuilds_result = 0;
  {
    stream::StreamEngine first(st.events, st.corpus.network, st.params);
    first.run_until(st.events.total_events() / 2);
    first.save_checkpoint(st.checkpoint);
    stream::StreamEngine resumed(st.events, st.corpus.network, st.params);
    CounterWindow in_restore("stream.vis_rebuilds");
    resumed.restore_checkpoint(st.checkpoint);
    rebuilds_restore = in_restore.delta();
    CounterWindow in_run("stream.vis_rebuilds");
    resumed.run_all();
    rebuilds_resumed_run = in_run.delta();
    CounterWindow in_result("stream.vis_rebuilds");
    (void)resumed.result();
    rebuilds_result = in_result.delta();
  }

  // Marginal cost of the Bayes hook: paired full replays, off then on.
  const double votes = static_cast<double>(st.events.total_events());
  std::vector<double> bayes_ns;
  for (int i = 0; i < 7; ++i) {
    const double off = plain_run_ms(st, false);
    const double on = plain_run_ms(st, true);
    bayes_ns.push_back((on - off) * 1e6 / votes);
  }

  // HybridSet::union_span in isolation: every story's below-horizon voter
  // prefix, folded exactly as VisibilitySet::add_voter folds it.
  const std::size_t horizon =
      std::max<std::size_t>(st.params.influence_checkpoints.back(),
                            st.params.cascade_checkpoints.back() + 1);
  const auto users = st.corpus.network.node_count();
  std::uint64_t unions = 0;
  std::vector<double> union_ns;
  for (int rep = 0; rep < 5; ++rep) {
    unions = 0;
    platform::HybridSet voters(users), watchers(users);
    const std::int64_t t0 = now_ns();
    for (const platform::StoryView& story : st.events.stories) {
      voters.reset(users);
      watchers.reset(users);
      const auto prefix = story.voters().first(
          std::min<std::size_t>(horizon, story.vote_count()));
      for (const platform::UserId v : prefix) {
        voters.insert(v);
        watchers.erase(v);
        watchers.union_span(
            st.corpus.network.fans(v),
            [&](platform::UserId fan) { return !voters.contains(fan); },
            [](platform::UserId) {});
        ++unions;
      }
    }
    union_ns.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(unions));
  }

  // FlatTree::predict_classes over every story's v10 row.
  const std::vector<core::StoryFeatures> rows_f =
      stream::to_story_features(st.reference, st.params);
  std::vector<double> rows;
  for (const core::StoryFeatures& f : rows_f) {
    const std::vector<double> enc =
        core::InterestingnessPredictor::encode(f, core::FeatureSet::kPaper);
    rows.insert(rows.end(), enc.begin(), enc.end());
  }
  const std::size_t stride = rows.size() / rows_f.size();
  const ml::FlatTree flat(st.predictor.tree());
  std::vector<std::int32_t> klass(rows_f.size());
  std::vector<double> tree_ns;
  for (int rep = 0; rep < 7; ++rep) {
    constexpr int kInner = 200;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kInner; ++i)
      flat.predict_classes(rows.data(), rows_f.size(), stride, klass.data());
    tree_ns.push_back(static_cast<double>(now_ns() - t0) /
                      (kInner * static_cast<double>(rows_f.size())));
  }

  // The same full replay at 2 threads, against 1.
  std::vector<double> run_2t;
  runtime::set_default_threads(2);
  for (int i = 0; i < 5; ++i) run_2t.push_back(plain_run_ms(st, true));
  runtime::set_default_threads(kReplayThreads);

  auto& m = r.metrics;
  m["stream.init_ms"] = median(b.per_call_ms.at("stream.init"));
  m["stream.run_ms"] = median(b.per_pass_ms.at("stream.run"));
  m["stream.checkpoint_save_ms"] = median(b.per_call_ms.at("stream.save_checkpoint"));
  m["stream.checkpoint_restore_ms"] =
      median(b.per_call_ms.at("stream.restore_checkpoint"));
  m["stream.checkpoint_bytes"] = checkpoint_bytes;
  m["stream.state_bytes"] = static_cast<double>(state_bytes);
  m["stream.vis_rebuilds"] = rebuilds.delta();
  m["stream.vis_evictions"] = evictions.delta();
  m["stream.bayes_ns_per_vote"] = median(bayes_ns);
  m["digg.union_ns_per_op"] = median(union_ns);
  m["digg.unions"] = static_cast<double>(unions);
  m["ml.flat_tree_ns_per_row"] = median(tree_ns);
  m["stream.run_2t_ms"] = median(run_2t);
  m["replay.explained_frac"] = median(b.explained);
  m["replay.trace_overhead_frac"] =
      (median(traced) - median(untraced)) / median(untraced);

  add_row(r, "replay (%u thread): pass %.2f ms untraced, %.2f ms traced; "
          "%.1f%% of traced wall time in layer spans",
          kReplayThreads, median(untraced) * 1e3, median(traced) * 1e3,
          100.0 * median(b.explained));
  add_span_table(r, b);
  add_row(r, "  visibility rebuilds per kill/resume of corpus 0: %.0f in "
          "restore, %.0f in the resumed run, %.0f in result()",
          rebuilds_restore, rebuilds_resumed_run, rebuilds_result);
  add_row(r, "  isolated: union_span %.1f ns/op over %llu unions, FlatTree "
          "%.2f ns/row, Bayes hook %.1f ns/vote, run_all %.2f ms at 2 threads",
          m["digg.union_ns_per_op"], static_cast<unsigned long long>(unions),
          m["ml.flat_tree_ns_per_row"], m["stream.bayes_ns_per_vote"],
          m["stream.run_2t_ms"]);
  return r;
}

}  // namespace perfbench
