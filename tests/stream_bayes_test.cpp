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
#include "src/data/synthetic.h"
#include "src/stream/checkpoint.h"
#include "src/stream/engine.h"
#include "src/stream/source.h"

namespace digg::stream {
namespace {

namespace fs = std::filesystem;

// --- pure-arithmetic unit tests -----------------------------------------

TEST(BayesFit, PosteriorMeansMatchConjugateFormulas) {
  BayesFitParams p;
  BayesEvidence e;
  e.in_network_votes = 4;
  e.out_network_votes = 6;
  e.exposure_watcher_minutes = 8000.0;
  e.elapsed_minutes = 600.0;
  const BayesFit fit = fit_rates(p, e);
  EXPECT_DOUBLE_EQ(fit.r_fan, (p.fan_prior_votes + 4.0) /
                                  (p.fan_prior_exposure + 8000.0));
  EXPECT_DOUBLE_EQ(fit.r_disc, (p.disc_prior_votes + 6.0) /
                                   (p.disc_prior_minutes + 600.0));
}

TEST(BayesFit, NoEvidenceFallsBackToPrior) {
  const BayesFitParams p;
  const BayesFit fit = fit_rates(p, BayesEvidence{});
  EXPECT_DOUBLE_EQ(fit.r_fan, p.fan_prior_votes / p.fan_prior_exposure);
  EXPECT_DOUBLE_EQ(fit.r_disc, p.disc_prior_votes / p.disc_prior_minutes);
}

TEST(BayesFit, AudiencePerVoteIsCapped) {
  BayesFitParams p;
  BayesEvidence e;
  e.votes = 2;
  e.audience = 1e6;  // a mega-hub's fan union
  const BayesFit fit = fit_rates(p, e);
  EXPECT_EQ(fit.audience_per_vote, p.max_audience_per_vote);
}

TEST(BayesForward, PredictionNeverBelowObservedVotes) {
  const BayesFitParams p;
  BayesEvidence e;
  e.votes = 11;
  e.elapsed_minutes = 300.0;
  const double n = expected_final_votes(p, e, fit_rates(p, e));
  EXPECT_GE(n, 11.0);
}

TEST(BayesForward, HotterRatesPredictMoreVotes) {
  const BayesFitParams p;
  BayesEvidence e;
  e.votes = 11;
  e.elapsed_minutes = 120.0;
  e.audience = 400.0;
  BayesFit cold = fit_rates(p, e);
  BayesFit hot = cold;
  hot.r_fan *= 50.0;
  hot.r_disc *= 50.0;
  EXPECT_GT(expected_final_votes(p, e, hot),
            expected_final_votes(p, e, cold));
}

TEST(BayesForward, FrontPageGainActsOnlyPastThePromotionRule) {
  BayesEvidence e;
  e.votes = 11;
  e.elapsed_minutes = 120.0;
  e.audience = 200.0;
  BayesFitParams gain12;
  gain12.front_page_gain = 12.0;
  BayesFitParams gain1 = gain12;
  gain1.front_page_gain = 1.0;
  // Enough discovery flow to cross kPromotionVotes in the queue: the
  // front-page channel then carries the gain.
  BayesFit crossing = fit_rates(gain12, e);
  crossing.r_disc = 0.4;
  EXPECT_GT(expected_final_votes(gain12, e, crossing),
            expected_final_votes(gain1, e, crossing));
  // A fit that stays below the rule never reaches the front page, so the
  // gain cannot move it.
  BayesFit stalled = crossing;
  stalled.r_fan = 0.0;
  stalled.r_disc = 1e-3;
  const double below = expected_final_votes(gain12, e, stalled);
  EXPECT_LT(below, static_cast<double>(kPromotionVotes));
  EXPECT_EQ(below, expected_final_votes(gain1, e, stalled));
}

// The forward integral as a per-step exp/pow loop: every decay term
// evaluated from the step's time. expected_final_votes carries the same
// terms as running products; the two must agree to rounding.
double closed_form_final_votes(const BayesFitParams& params,
                               const BayesEvidence& evidence,
                               const BayesFit& fit) {
  double n = evidence.votes;
  double audience = evidence.audience;
  const double h = std::max(1.0, params.step_minutes);
  bool promoted = n >= static_cast<double>(kPromotionVotes);
  double promoted_at = promoted ? evidence.elapsed_minutes : 0.0;
  for (double t = evidence.elapsed_minutes; t < params.horizon_minutes;
       t += h) {
    const double disc_visibility =
        promoted ? params.front_page_gain *
                       std::pow(0.5, (t - promoted_at) /
                                         params.novelty_half_life)
                 : std::exp(-t / params.upcoming_decay_minutes);
    const double fan_visibility =
        params.fan_decay_minutes > 0 ? std::exp(-t / params.fan_decay_minutes)
                                     : 1.0;
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

TEST(BayesForward, RecurrenceMatchesClosedForm) {
  struct Case {
    const char* name;
    BayesEvidence evidence;
    double r_fan;
    double r_disc;
    double fan_decay_minutes;
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
      {"promoted at the start", evidence(50, 90.0, 300.0, 0.0), 2e-4, 0.05,
       2880.0},
      {"crosses vote 43 mid-run", evidence(11, 120.0, 200.0, 0.0), 1e-4, 0.4,
       2880.0},
      {"stalled", evidence(11, 600.0, 40.0, 0.0), 0.0, 1e-3, 2880.0},
      {"no fan decay", evidence(11, 60.0, 150.0, 0.0), 3e-4, 0.1, 0.0},
      {"population-capped", evidence(11, 30.0, 5000.0, 2000.0), 5e-3, 2.0,
       2880.0},
  };
  std::vector<double> finals;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    BayesFitParams p;
    p.fan_decay_minutes = c.fan_decay_minutes;
    BayesFit fit = fit_rates(p, c.evidence);
    fit.r_fan = c.r_fan;
    fit.r_disc = c.r_disc;
    const double want = closed_form_final_votes(p, c.evidence, fit);
    finals.push_back(expected_final_votes(p, c.evidence, fit));
    EXPECT_NEAR(finals.back(), want, 1e-12 * want);
  }
  // The grid reaches every branch it names.
  EXPECT_GE(finals[1], static_cast<double>(kPromotionVotes));
  EXPECT_LT(finals[2], static_cast<double>(kPromotionVotes));
  EXPECT_EQ(finals[4], cases[4].evidence.population);
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

TEST(StreamBayes, FitsFireOnceStoriesPassTheFitPoint) {
  StreamEngine engine(stream(), corpus().corpus.network, bayes_params());
  engine.run_all();
  const StreamResult result = engine.result();
  std::size_t fits = 0;
  for (const StoryOutcome& o : result.stories) {
    // The verdict exists exactly for stories that reached fit_at + 1 votes.
    EXPECT_EQ(o.bayes_interesting.has_value(), o.final_votes >= 11u);
    if (!o.bayes_interesting) continue;
    ++fits;
    EXPECT_GE(o.bayes_expected_final, 11.0);
    EXPECT_EQ(*o.bayes_interesting,
              o.bayes_expected_final >
                  static_cast<double>(core::kInterestingnessThreshold));
  }
  ASSERT_GT(fits, 0u);
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

TEST(StreamBayes, FitAtMustFitTheCascadeWindow) {
  StreamParams p = bayes_params();
  p.bayes.fit_at = 0;
  EXPECT_THROW(StreamEngine(stream(), corpus().corpus.network, p),
               std::invalid_argument);
  p.bayes.fit_at = 21;  // last cascade checkpoint is 20
  EXPECT_THROW(StreamEngine(stream(), corpus().corpus.network, p),
               std::invalid_argument);
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
  // Cut mid-stream so plenty of stories are still below fit_at: the
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
  {
    StreamParams other = bayes_params();
    other.bayes.fit_at = 6;
    StreamEngine different(stream(), net, other);
    EXPECT_THROW(different.restore_checkpoint(with), std::runtime_error);
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
