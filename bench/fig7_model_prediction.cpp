// Prediction-quality comparison: the online Gamma-Poisson Bayes fit
// (src/stream/bayes.h) races the paper's C4.5 (v10, fans1) tree, per
// scenario. Both predictors commit at the same information boundary — the
// story's first 10 votes after the submitter's digg — so the race is
// apples-to-apples: a trained batch classifier versus a per-story
// mechanistic fit that needs no training corpus at all.
//
// Protocol, per scenario: train the C4.5 tree on the scenario's corpus at
// the given seed, then replay a *fresh* corpus of the same scenario at
// seed+1 through the stream engine with both hooks armed, and score each
// predictor's online verdicts against the true final-vote labels. The
// Bayes expected-final-vote estimates also feed a calibration table
// (predicted vs actual final votes by predicted-magnitude bin).
//
// Options (figures --figure fig7_model_prediction):
//   --scenario   run one scenario instead of all named ones
//   --smoke      downscaled corpora (the scripts/ci.sh `scenarios` leg)
//
// Every sweep over all scenarios (no --scenario), full size or smoke,
// asserts that each generative model id in dynamics::kModelIds is covered
// by some scenario; only --smoke prints the SMOKE OK line.

#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench/figures.h"
#include "src/core/features.h"
#include "src/core/predictor.h"
#include "src/dynamics/model.h"
#include "src/ml/validation.h"
#include "src/stats/table.h"
#include "src/stream/engine.h"
#include "src/stream/source.h"

namespace digg::figures {

namespace {

struct ScenarioReport {
  std::string name;
  std::string model_id;
  // Over the stories where both predictors committed.
  ml::Confusion c45;
  ml::Confusion bayes;
};

data::SyntheticCorpus generate(const data::ScenarioSpec& spec,
                               std::uint64_t seed) {
  stats::Rng rng(seed);
  return data::generate_corpus(spec.params, rng);
}

ScenarioReport run_scenario(const std::string& name, std::uint64_t seed,
                            bool smoke, stats::TextTable& calibration) {
  data::ScenarioSpec spec = data::make_scenario(name, seed);
  if (smoke) data::downscale(spec, 4000, 120);
  // Downscaled corpora rarely clear the paper's 520-vote bar; scale the
  // label so both classes exist and the race still means something.
  const std::size_t threshold =
      smoke ? 60 : core::kInterestingnessThreshold;

  // Train the tree on this scenario's corpus at the base seed...
  const data::SyntheticCorpus train = generate(spec, spec.seed);
  const std::vector<core::StoryFeatures> train_rows = core::extract_features(
      train.corpus.front_page, train.corpus.network, threshold);
  const core::InterestingnessPredictor predictor =
      core::InterestingnessPredictor::train(train_rows);

  // ...and race both predictors online over a fresh corpus at seed+1.
  const data::SyntheticCorpus eval = generate(spec, spec.seed + 1);
  const stream::EventStream es = stream::build_event_stream(eval.corpus);
  stream::StreamParams params;
  params.interesting_threshold = threshold;
  params.predictor = &predictor;
  params.bayes.enabled = true;
  stream::StreamEngine engine(es, eval.corpus.network, params);
  engine.run_all();
  const stream::StreamResult result = engine.result();

  ScenarioReport rep;
  rep.name = spec.name;
  rep.model_id = spec.model_id();

  // Calibration bins over the Bayes expected-final estimate.
  const double edges[] = {0, 10, 25, 43, 90, 180, 1e300};
  constexpr std::size_t kBins = 6;
  double pred_sum[kBins] = {}, actual_sum[kBins] = {};
  std::size_t bin_n[kBins] = {};

  for (const stream::StoryOutcome& story : result.stories) {
    if (!story.predicted_interesting.has_value() ||
        !story.bayes_interesting.has_value())
      continue;  // never reached the shared 10-vote decision point
    rep.c45.add(story.interesting, *story.predicted_interesting);
    rep.bayes.add(story.interesting, *story.bayes_interesting);
    for (std::size_t b = 0; b < kBins; ++b) {
      if (story.bayes_expected_final >= edges[b] &&
          story.bayes_expected_final < edges[b + 1]) {
        pred_sum[b] += story.bayes_expected_final;
        actual_sum[b] += static_cast<double>(story.final_votes);
        ++bin_n[b];
        break;
      }
    }
  }

  for (std::size_t b = 0; b < kBins; ++b) {
    if (bin_n[b] == 0) continue;
    const double n = static_cast<double>(bin_n[b]);
    calibration.add_row(
        {rep.name,
         b + 1 < kBins ? stats::fmt(edges[b], 0) + "-" +
                             stats::fmt(edges[b + 1], 0)
                       : ">=" + stats::fmt(edges[b], 0),
         stats::fmt(static_cast<std::int64_t>(bin_n[b])),
         stats::fmt(pred_sum[b] / n, 1), stats::fmt(actual_sum[b] / n, 1)});
  }
  return rep;
}

}  // namespace

void fig7_model_prediction(const bench::CliOptions& opts) {
  // Default sweep: every named scenario; --scenario narrows to one.
  const std::vector<std::string> names =
      opts.scenario_given ? std::vector<std::string>{opts.scenario}
                          : data::scenario_names();

  stats::TextTable table({"scenario", "model", "stories", "C4.5 prec",
                          "C4.5 rec", "C4.5 acc", "Bayes prec", "Bayes rec",
                          "Bayes acc"});
  stats::TextTable calibration(
      {"scenario", "predicted bin", "n", "mean predicted", "mean actual"});
  std::set<std::string> models_covered;

  for (const std::string& name : names) {
    const ScenarioReport rep =
        run_scenario(name, opts.seed, opts.smoke, calibration);
    models_covered.insert(rep.model_id);
    table.add_row({rep.name, rep.model_id,
                   stats::fmt(static_cast<std::int64_t>(rep.c45.total())),
                   stats::fmt(rep.c45.precision(), 2),
                   stats::fmt(rep.c45.recall(), 2),
                   stats::fmt_pct(rep.c45.accuracy()),
                   stats::fmt(rep.bayes.precision(), 2),
                   stats::fmt(rep.bayes.recall(), 2),
                   stats::fmt_pct(rep.bayes.accuracy())});
  }

  std::printf("decision point: 10 votes after the submitter's digg; "
              "labels: final votes > %s\n\n",
              opts.smoke ? "60 (smoke downscale)" : "520 (paper Sec. 5.1)");
  std::printf("%s\n", table.render().c_str());
  std::printf("Bayes calibration (expected vs actual final votes):\n%s",
              calibration.render().c_str());

  if (!opts.scenario_given) {
    // The coverage assertion: every generative model must be exercised by
    // at least one scenario, or the matrix rotted.
    for (const std::string_view id : dynamics::kModelIds) {
      if (models_covered.count(std::string(id)) == 0)
        throw std::runtime_error("model '" + std::string(id) +
                                 "' not covered by any scenario");
    }
    if (opts.smoke)
      std::printf("\nSMOKE OK: %zu scenarios covering %zu models\n",
                  names.size(), dynamics::kModelIds.size());
  }
}

}  // namespace digg::figures
