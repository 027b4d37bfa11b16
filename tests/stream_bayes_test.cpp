// The online Bayes fit: the pure Gamma-Poisson arithmetic (bayes.h), the
// engine's fit hook, and checkpoints (kill/resume across the fit point is
// bit-identical; config mismatches are refused).

#include "src/stream/bayes.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "src/core/features.h"
#include "src/core/predictor.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"
#include "src/stream/checkpoint.h"
#include "src/stream/engine.h"
#include "src/stream/source.h"

namespace digg::stream {
namespace {

namespace fs = std::filesystem;

// --- pure-arithmetic unit tests -----------------------------------------

TEST(BayesFit, PosteriorMeansMatchConjugateFormulas) {
  BayesEvidence e;
  e.in_network_votes = 4;
  e.out_network_votes = 6;
  e.exposure_watcher_minutes = 8000.0;
  e.elapsed_minutes = 600.0;
  const BayesFit fit = fit_rates(e);
  EXPECT_DOUBLE_EQ(fit.r_fan,
                   (kFanPriorVotes + 4.0) / (kFanPriorExposure + 8000.0));
  EXPECT_DOUBLE_EQ(fit.r_disc,
                   (kDiscPriorVotes + 6.0) / (kDiscPriorMinutes + 600.0));
}

TEST(BayesFit, NoEvidenceFallsBackToPrior) {
  const BayesFit fit = fit_rates(BayesEvidence{});
  EXPECT_DOUBLE_EQ(fit.r_fan, kFanPriorVotes / kFanPriorExposure);
  EXPECT_DOUBLE_EQ(fit.r_disc, kDiscPriorVotes / kDiscPriorMinutes);
}

TEST(BayesFit, AudiencePerVoteIsCapped) {
  BayesEvidence e;
  e.votes = 2;
  e.audience = 1e6;  // a mega-hub's fan union
  const BayesFit fit = fit_rates(e);
  EXPECT_EQ(fit.audience_per_vote, kMaxAudiencePerVote);
}

TEST(BayesForward, PredictionNeverBelowObservedVotes) {
  BayesEvidence e;
  e.votes = 11;
  e.elapsed_minutes = 300.0;
  const double n = expected_final_votes(e, fit_rates(e));
  EXPECT_GE(n, 11.0);
}

TEST(BayesForward, HotterRatesPredictMoreVotes) {
  BayesEvidence e;
  e.votes = 11;
  e.elapsed_minutes = 120.0;
  e.audience = 400.0;
  BayesFit cold = fit_rates(e);
  BayesFit hot = cold;
  hot.r_fan *= 50.0;
  hot.r_disc *= 50.0;
  EXPECT_GT(expected_final_votes(e, hot), expected_final_votes(e, cold));
}

// The forward integral as a per-step exp/pow loop: every decay term
// evaluated from the step's time, with the front-page gain a parameter so
// a test can vary what the library fixes at kFrontPageGain.
// expected_final_votes carries the same terms as running products; the two
// must agree to rounding.
double closed_form_final_votes(const BayesEvidence& evidence,
                               const BayesFit& fit,
                               double front_page_gain = kFrontPageGain) {
  double n = evidence.votes;
  double audience = evidence.audience;
  const double h = kStepMinutes;
  bool promoted = n >= static_cast<double>(kPromotionVotes);
  double promoted_at = promoted ? evidence.elapsed_minutes : 0.0;
  for (double t = evidence.elapsed_minutes; t < kHorizonMinutes; t += h) {
    const double disc_visibility =
        promoted ? front_page_gain *
                       std::pow(0.5, (t - promoted_at) / kNoveltyHalfLife)
                 : std::exp(-t / kUpcomingDecayMinutes);
    const double fan_visibility = std::exp(-t / kFanDecayMinutes);
    double dn = fit.r_fan * fan_visibility * audience * h +
                fit.r_disc * disc_visibility * h;
    if (evidence.population > 0) {
      dn *= std::max(0.0, 1.0 - n / evidence.population);
      if (n + dn > evidence.population) dn = evidence.population - n;
    }
    n += dn;
    audience += fit.audience_per_vote * dn;
    if (!promoted && n >= static_cast<double>(kPromotionVotes)) {
      promoted = true;
      promoted_at = t;
    }
  }
  return n;
}

TEST(BayesForward, FrontPageGainActsOnlyPastThePromotionRule) {
  BayesEvidence e;
  e.votes = 11;
  e.elapsed_minutes = 120.0;
  e.audience = 200.0;
  // Enough discovery flow to cross kPromotionVotes in the queue: the
  // front-page channel then carries the gain, so the library (gain
  // kFrontPageGain) lands above the reference run without one.
  BayesFit crossing = fit_rates(e);
  crossing.r_disc = 0.4;
  const double with_gain = expected_final_votes(e, crossing);
  EXPECT_NEAR(with_gain, closed_form_final_votes(e, crossing),
              1e-12 * with_gain);
  EXPECT_GT(with_gain, closed_form_final_votes(e, crossing, 1.0));
  // A fit that stays below the rule never reaches the front page, so the
  // gain cannot move it.
  BayesFit stalled = crossing;
  stalled.r_fan = 0.0;
  stalled.r_disc = 1e-3;
  const double below = expected_final_votes(e, stalled);
  EXPECT_LT(below, static_cast<double>(kPromotionVotes));
  EXPECT_EQ(closed_form_final_votes(e, stalled, kFrontPageGain),
            closed_form_final_votes(e, stalled, 1.0));
  EXPECT_NEAR(below, closed_form_final_votes(e, stalled), 1e-12 * below);
}

TEST(BayesForward, RecurrenceMatchesClosedForm) {
  struct Case {
    const char* name;
    BayesEvidence evidence;
    double r_fan;
    double r_disc;
  };
  const auto evidence = [](std::uint32_t votes, double elapsed,
                           double audience, double population) {
    BayesEvidence e;
    e.votes = votes;
    e.elapsed_minutes = elapsed;
    e.audience = audience;
    e.population = population;
    return e;
  };
  const Case cases[] = {
      {"promoted at the start", evidence(50, 90.0, 300.0, 0.0), 2e-4, 0.05},
      {"crosses vote 43 mid-run", evidence(11, 120.0, 200.0, 0.0), 1e-4, 0.4},
      {"stalled", evidence(11, 600.0, 40.0, 0.0), 0.0, 1e-3},
      {"population-capped", evidence(11, 30.0, 5000.0, 2000.0), 5e-3, 2.0},
  };
  std::vector<double> finals;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    BayesFit fit = fit_rates(c.evidence);
    fit.r_fan = c.r_fan;
    fit.r_disc = c.r_disc;
    const double want = closed_form_final_votes(c.evidence, fit);
    finals.push_back(expected_final_votes(c.evidence, fit));
    EXPECT_NEAR(finals.back(), want, 1e-12 * want);
  }
  // The grid reaches every branch it names.
  EXPECT_GE(finals[1], static_cast<double>(kPromotionVotes));
  EXPECT_LT(finals[2], static_cast<double>(kPromotionVotes));
  EXPECT_EQ(finals[3], cases[3].evidence.population);
}

// --- engine integration --------------------------------------------------

const data::SyntheticCorpus& corpus() {
  static const data::SyntheticCorpus c = [] {
    stats::Rng rng(42);
    data::SyntheticParams params;
    params.user_count = 20000;
    params.story_count = 250;
    params.vote_model.step = 2.0;
    return data::generate_corpus(params, rng);
  }();
  return c;
}

const EventStream& stream() {
  static const EventStream s = build_event_stream(corpus().corpus);
  return s;
}

StreamParams bayes_params() {
  StreamParams p;
  p.bayes.enabled = true;
  return p;
}

std::vector<core::StoryFeatures> front_page_features() {
  return core::extract_features(corpus().corpus.front_page,
                                corpus().corpus.network);
}

// Both hooks armed: the C4.5 tree and the Bayes fit decide together.
StreamParams both_hooks() {
  static const core::InterestingnessPredictor tree =
      core::InterestingnessPredictor::train(front_page_features());
  StreamParams p = bayes_params();
  p.predictor = &tree;
  return p;
}

// Each verdict exists exactly for stories that reached vote 10 (11 votes
// counting the submitter's digg), and the two hooks decide together.
void expect_one_decision_point(const StreamResult& result) {
  std::size_t fits = 0;
  for (const StoryOutcome& o : result.stories) {
    EXPECT_EQ(o.bayes_interesting.has_value(),
              o.final_votes >= kFitVotes + 1u);
    EXPECT_EQ(o.predicted_interesting.has_value(),
              o.bayes_interesting.has_value());
    if (!o.bayes_interesting) continue;
    ++fits;
    EXPECT_GE(o.bayes_expected_final, kFitVotes + 1.0);
    EXPECT_EQ(*o.bayes_interesting,
              o.bayes_expected_final >
                  static_cast<double>(core::kInterestingnessThreshold));
  }
  ASSERT_GT(fits, 0u);
  ASSERT_LT(fits, result.stories.size());  // some stories stop short
}

TEST(StreamBayes, FitsFireOnceStoriesPassTheFitPoint) {
  StreamEngine engine(stream(), corpus().corpus.network, both_hooks());
  engine.run_all();
  const StreamResult result = engine.result();
  expect_one_decision_point(result);
  // Applied in 97-event steps, so slices end all around vote 10, the
  // stream still fits each story once, to the same estimate.
  StreamEngine stepped(stream(), corpus().corpus.network, both_hooks());
  const obs::Counter& fits =
      obs::Registry::global().counter("stream.bayes_fits");
  const std::uint64_t fits_before = fits.value();
  for (std::uint64_t n = 1; n <= stream().total_events(); n += 97)
    stepped.run_until(n);
  stepped.run_all();
  EXPECT_EQ(stepped.result(), result);
  EXPECT_EQ(fits.value() - fits_before,
            static_cast<std::uint64_t>(std::count_if(
                result.stories.begin(), result.stories.end(),
                [](const StoryOutcome& o) { return o.bayes_interesting; })));
}

TEST(StreamBayes, LiveEngineDecidesAtTheSameVote) {
  // The live engine recounts influence only at its checkpoints; the fit
  // reads the vote-11 one, so it must land on the replay's verdicts.
  const auto& net = corpus().corpus.network;
  StreamEngine live(net, both_hooks());
  for (const platform::StoryView& s : stream().stories) {
    const std::uint32_t slot = live.live_submit(s.id, s.submitter,
                                                s.times()[0]);
    for (std::size_t k = 1; k < s.vote_count(); ++k)
      live.live_vote(slot, s.voters()[k], s.times()[k]);
  }
  const StreamResult got = live.result();
  expect_one_decision_point(got);
  StreamEngine replay(stream(), net, both_hooks());
  replay.run_all();
  const StreamResult want = replay.result();
  ASSERT_EQ(got.stories.size(), want.stories.size());
  for (std::size_t i = 0; i < got.stories.size(); ++i) {
    EXPECT_EQ(got.stories[i].predicted_interesting,
              want.stories[i].predicted_interesting);
    EXPECT_EQ(got.stories[i].bayes_interesting,
              want.stories[i].bayes_interesting);
    EXPECT_EQ(got.stories[i].bayes_expected_final,
              want.stories[i].bayes_expected_final);
  }
}

TEST(StreamBayes, ExtendedFeaturePredictorIsRefused) {
  // The engine scores the tree from (v10, fans1) alone, so a tree trained
  // on other features would go unscored: both constructors refuse it.
  const core::InterestingnessPredictor extended =
      core::InterestingnessPredictor::train(front_page_features(),
                                            core::FeatureSet::kExtended);
  StreamParams p = bayes_params();
  p.predictor = &extended;
  const auto& net = corpus().corpus.network;
  EXPECT_THROW(StreamEngine(stream(), net, p), std::invalid_argument);
  EXPECT_THROW(StreamEngine(net, p), std::invalid_argument);
}

TEST(StreamBayes, DisabledEngineEmitsNoVerdicts) {
  StreamEngine engine(stream(), corpus().corpus.network);
  engine.run_all();
  for (const StoryOutcome& o : engine.result().stories) {
    EXPECT_FALSE(o.bayes_interesting.has_value());
    EXPECT_EQ(o.bayes_expected_final, 0.0);
  }
}

TEST(StreamBayes, EstimatesTrackFinalVotesDirectionally) {
  // Not a calibration test — just that the fitted model orders a clearly
  // hot story above a clearly cold one, on average. Compare the mean
  // prediction of the top and bottom quartile of fitted stories by final
  // votes.
  StreamEngine engine(stream(), corpus().corpus.network, bayes_params());
  engine.run_all();
  std::vector<std::pair<std::size_t, double>> fitted;  // (final, predicted)
  for (const StoryOutcome& o : engine.result().stories)
    if (o.bayes_interesting)
      fitted.emplace_back(o.final_votes, o.bayes_expected_final);
  ASSERT_GE(fitted.size(), 20u);
  std::sort(fitted.begin(), fitted.end());
  const std::size_t q = fitted.size() / 4;
  double lo = 0, hi = 0;
  for (std::size_t i = 0; i < q; ++i) {
    lo += fitted[i].second;
    hi += fitted[fitted.size() - 1 - i].second;
  }
  EXPECT_GT(hi, lo);
}

// --- checkpoints ---------------------------------------------------------

class StreamBayesCkpt : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("digg_stream_bayes_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] fs::path file(const std::string& name) const {
    return dir_ / name;
  }

 private:
  fs::path dir_;
};

TEST_F(StreamBayesCkpt, KillResumeIsBitIdenticalAcrossTheFitPoint) {
  // Cut mid-stream so plenty of stories are still below vote 10: the
  // checkpoint carries no exposure, so the resumed engine must recount it
  // from the prefix, fit later, and land on exactly the uninterrupted
  // result.
  const auto& net = corpus().corpus.network;
  StreamEngine reference(stream(), net, bayes_params());
  reference.run_all();
  const StreamResult expect = reference.result();

  for (const double frac : {0.1, 0.5, 0.9}) {
    StreamEngine first(stream(), net, bayes_params());
    first.run_until(static_cast<std::uint64_t>(
        static_cast<double>(stream().total_events()) * frac));
    const fs::path ckpt = file("cut.ckpt");
    first.save_checkpoint(ckpt);

    StreamEngine resumed(stream(), net, bayes_params());
    resumed.restore_checkpoint(ckpt);
    resumed.run_all();
    const StreamResult got = resumed.result();
    ASSERT_EQ(got.stories.size(), expect.stories.size());
    for (std::size_t i = 0; i < got.stories.size(); ++i) {
      EXPECT_EQ(got.stories[i].bayes_interesting,
                expect.stories[i].bayes_interesting);
      EXPECT_EQ(got.stories[i].bayes_expected_final,
                expect.stories[i].bayes_expected_final);
      EXPECT_EQ(got.stories[i].final_votes, expect.stories[i].final_votes);
    }
  }
}

TEST_F(StreamBayesCkpt, ConfigMismatchIsRefusedBothWays) {
  const auto& net = corpus().corpus.network;
  const fs::path with = file("with.ckpt");
  const fs::path without = file("without.ckpt");
  {
    StreamEngine e(stream(), net, bayes_params());
    e.run_until(stream().total_events() / 2);
    e.save_checkpoint(with);
  }
  {
    StreamEngine e(stream(), net);
    e.run_until(stream().total_events() / 2);
    e.save_checkpoint(without);
  }
  {
    StreamEngine plain(stream(), net);
    EXPECT_THROW(plain.restore_checkpoint(with), std::runtime_error);
  }
  {
    StreamEngine bayes(stream(), net, bayes_params());
    EXPECT_THROW(bayes.restore_checkpoint(without), std::runtime_error);
  }
}

TEST_F(StreamBayesCkpt, CheckpointReportsCurrentVersion) {
  const fs::path ckpt = file("bayes.ckpt");
  StreamEngine e(stream(), corpus().corpus.network, bayes_params());
  e.run_until(1000);
  e.save_checkpoint(ckpt);
  const CheckpointInfo info = read_checkpoint_info(ckpt);
  EXPECT_EQ(info.version, kStreamCheckpointVersion);
  EXPECT_EQ(info.events_applied, 1000u);
}

}  // namespace
}  // namespace digg::stream
