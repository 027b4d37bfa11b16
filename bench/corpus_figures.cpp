// The figures computed from the scenario's one generated corpus. Each
// function prints one figure's body; the figures driver prints its title
// and the corpus line first.

#include <cmath>
#include <unordered_set>

#include "bench/figures.h"
#include "src/core/experiment.h"
#include "src/dynamics/novelty.h"
#include "src/ml/baseline.h"
#include "src/ml/forest.h"
#include "src/ml/roc.h"
#include "src/stats/bootstrap.h"
#include "src/stats/histogram.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"

namespace digg::figures {

namespace {

// Fig. 2b: one activity distribution in log2 bins.
void print_log_binned(const char* label,
                      const stats::FrequencyCounter& counter) {
  stats::LogHistogram log_hist(2.0);
  for (const auto& [value, count] : counter.items()) {
    for (std::uint64_t i = 0; i < count; ++i)
      log_hist.add(static_cast<std::uint64_t>(value));
  }
  std::printf("%s (log2 bins of activity level -> user count):\n", label);
  std::printf("%s\n", stats::render_bars(log_hist.bins()).c_str());
}

// Fig. 3a: one influence histogram.
void print_influence(const char* label, const std::vector<std::size_t>& data) {
  stats::LinearHistogram hist(0.0, 1400.0, 14);
  for (std::size_t v : data) hist.add(static_cast<double>(v));
  std::printf("influence %s:\n%s\n", label,
              stats::render_bars(hist.bins()).c_str());
}

// Fig. 4: final votes per in-network-vote group.
void print_groups(const char* label,
                  const std::vector<core::Fig4Group>& groups) {
  using stats::fmt;
  stats::TextTable table({"in-network votes", "stories", "median final",
                          "trimmed lo", "trimmed hi"});
  for (const auto& g : groups) {
    if (g.final_votes.n == 0) continue;
    table.add_row({fmt(static_cast<std::int64_t>(g.in_network_votes)),
                   fmt(static_cast<std::int64_t>(g.final_votes.n)),
                   fmt(g.final_votes.median, 0),
                   fmt(g.final_votes.trimmed_lo, 0),
                   fmt(g.final_votes.trimmed_hi, 0)});
  }
  std::printf("%s:\n%s\n", label, table.render().c_str());
}

}  // namespace

// Figure 1: time series of votes received by randomly chosen front-page
// stories — slow accumulation in the upcoming queue, a jump at promotion,
// then saturation with a roughly one-day half-life (Wu & Huberman).
void fig1_vote_timeseries(const bench::Context& ctx) {
  stats::Rng rng = ctx.rng;
  const core::Fig1Result fig1 =
      core::fig1_vote_dynamics(ctx.synthetic.corpus, 6, rng);

  for (const auto& curve : fig1.curves) {
    std::printf("story %u: promoted after %.0f min with %zu votes", curve.story,
                curve.promoted_after.value_or(-1.0),
                curve.votes_at_promotion);
    if (curve.post_promotion_half_life) {
      std::printf(", post-promotion half-life %.0f min (paper: ~1 day)",
                  *curve.post_promotion_half_life);
    }
    std::printf(", final %0.f votes\n", curve.series.values().back());
    const stats::TimeSeries sampled =
        curve.series.resample(4.0 * platform::kMinutesPerDay, 16);
    std::printf(
        "%s\n",
        stats::render_series(sampled.times(), sampled.values()).c_str());
  }

  // Aggregate shape statistics across a larger sample.
  stats::Rng rng2 = rng.fork();
  const core::Fig1Result big =
      core::fig1_vote_dynamics(ctx.synthetic.corpus, 100, rng2);
  std::size_t exploding = 0;
  std::vector<double> half_lives;
  for (const auto& c : big.curves) {
    const double tp = *c.promoted_after;
    const double pre_rate = c.series.at(tp) / tp;
    const double post_rate =
        (c.series.at(tp + 120.0) - c.series.at(tp)) / 120.0;
    if (post_rate > pre_rate) ++exploding;
    if (c.post_promotion_half_life)
      half_lives.push_back(*c.post_promotion_half_life);
  }
  const stats::Summary hl = stats::summarize(half_lives);
  std::printf("aggregate over %zu stories:\n", big.curves.size());
  std::printf("  stories exploding at promotion: %zu/%zu\n", exploding,
              big.curves.size());
  std::printf("  median post-promotion half-life: %.0f min (paper: ~1440)\n",
              hl.median);
}

// Fig. 1 companion: fit the Wu–Huberman novelty-decay law to every promoted
// story's post-promotion vote curve and report the half-life distribution.
// Wu & Huberman measured ~1 day on 30k front-page Digg stories (§2).
void fig1_novelty_fit(const bench::Context& ctx) {
  const auto fits =
      dynamics::fit_novelty_decay_all(ctx.synthetic.corpus.front_page);
  std::printf("fitted %zu of %zu promoted stories (>=20 post votes)\n\n",
              fits.size(), ctx.synthetic.corpus.front_page.size());

  std::vector<double> half_lives;
  std::vector<double> rmses;
  for (const auto& fit : fits) {
    half_lives.push_back(fit.half_life_minutes);
    rmses.push_back(fit.rmse);
  }
  stats::LinearHistogram hist(0.0, 4320.0, 18);  // 0..3 days, 4h bins
  hist.add_many(half_lives);
  std::printf("half-life histogram (minutes):\n%s\n",
              stats::render_bars(hist.bins()).c_str());

  const stats::Summary hl = stats::summarize(half_lives);
  const stats::Summary err = stats::summarize(rmses);
  stats::TextTable table({"statistic", "reference", "measured"});
  table.add_row({"median half-life", "~1440 min (Wu & Huberman)",
                 stats::fmt(hl.median, 0) + " min"});
  table.add_row({"interquartile range", "-",
                 stats::fmt(hl.q1, 0) + " - " + stats::fmt(hl.q3, 0) + " min"});
  table.add_row({"median fit RMSE (votes)", "-", stats::fmt(err.median, 1)});
  std::printf("%s", table.render().c_str());
}

// Figure 2(a): histogram of the final number of votes received by the
// front-page stories. Paper: ~20% of stories below ~500 votes, ~20% above
// 1500, tail reaching a few thousand.
void fig2a_vote_histogram(const bench::Context& ctx) {
  const core::Fig2aResult r = core::fig2a_vote_histogram(ctx.synthetic.corpus);
  std::printf("%s\n", stats::render_bars(r.histogram.bins()).c_str());

  stats::TextTable table({"statistic", "paper", "measured"});
  table.add_row({"stories below 500 votes", "~20%",
                 stats::fmt_pct(r.fraction_below_500)});
  table.add_row({"stories above 1500 votes", "~20%",
                 stats::fmt_pct(r.fraction_above_1500)});
  table.add_row({"median final votes", "~600-1000",
                 stats::fmt(r.votes_summary.median, 0)});
  table.add_row({"max final votes", "~4000",
                 stats::fmt(r.votes_summary.max, 0)});
  std::printf("%s", table.render().c_str());
}

// Figure 2(b): log-log histogram of per-user activity — number of front-page
// submissions and number of votes cast. Both are heavy-tailed: most users
// act once, a few act on well over a hundred stories.
void fig2b_user_activity(const bench::Context& ctx) {
  const core::Fig2bResult r = core::fig2b_user_activity(ctx.synthetic.corpus);
  std::printf("distinct voters: %zu (paper: ~16,600)\n", r.distinct_voters);
  std::printf("distinct front-page submitters: %zu\n\n",
              r.distinct_submitters);

  print_log_binned("votes per user", r.votes_per_user);
  print_log_binned("front-page submissions per user", r.submissions_per_user);

  stats::TextTable table({"statistic", "paper", "measured"});
  table.add_row({"max votes by one user", ">100",
                 stats::fmt(r.votes_per_user.max_value())});
  table.add_row({"users voting exactly once", "majority",
                 stats::fmt_pct(static_cast<double>(r.votes_per_user.count(1)) /
                                static_cast<double>(r.distinct_voters))});
  table.add_row({"vote-count power-law alpha", "~2 (slope of Fig. 2b)",
                 stats::fmt(r.votes_fit.alpha, 2)});
  std::printf("%s", table.render().c_str());
}

// Figure 3(a): histogram of story influence — the number of users who can
// see the story through the Friends interface — at submission, after 10 and
// after 20 votes. Paper: slightly more than half the stories are submitted
// by users with fewer than ten fans; after ten votes almost half the stories
// are visible to at least 200 users.
void fig3a_influence(const bench::Context& ctx) {
  const core::Fig3aResult r = core::fig3a_influence(ctx.synthetic.corpus);
  print_influence("at submission", r.at_submission);
  print_influence("after 10 votes", r.after_10);
  print_influence("after 20 votes", r.after_20);

  stats::TextTable table({"statistic", "paper", "measured"});
  table.add_row({"submitters with < 10 fans", "~half",
                 stats::fmt_pct(r.fraction_submitters_under_10_fans)});
  table.add_row({"stories visible to >= 200 users after 10 votes", "~half",
                 stats::fmt_pct(r.fraction_visible_to_200_after_10)});
  std::printf("%s", table.render().c_str());
}

// Figure 3(b): histogram of cascade size — the number of in-network votes
// (votes by fans of prior voters) — after 10, 20 and 30 votes. Paper quotes:
// for 30% of stories at least half of the first ten votes were in-network;
// after 20 votes 28% had >= 10 in-network; after 30 votes 36% had >= 10.
void fig3b_cascades(const bench::Context& ctx) {
  const core::Fig3bResult r = core::fig3b_cascades(ctx.synthetic.corpus);
  std::printf("cascade size after 10 votes:\n%s\n",
              stats::render_bars(r.cascade_after_10.items()).c_str());
  std::printf("cascade size after 20 votes:\n%s\n",
              stats::render_bars(r.cascade_after_20.items()).c_str());
  std::printf("cascade size after 30 votes:\n%s\n",
              stats::render_bars(r.cascade_after_30.items()).c_str());

  stats::TextTable table({"statistic", "paper", "measured"});
  table.add_row({">= 5 in-network of first 10 votes", "30%",
                 stats::fmt_pct(r.frac_half_of_first10)});
  table.add_row({">= 10 in-network after 20 votes", "28%",
                 stats::fmt_pct(r.frac_10plus_after20)});
  table.add_row({">= 10 in-network after 30 votes", "36%",
                 stats::fmt_pct(r.frac_10plus_after30)});
  std::printf("%s", table.render().c_str());
}

// Figure 4: final vote count (interestingness) vs the number of in-network
// votes among the first 6 / 10 / 20 votes, as median and trimmed spread per
// group. The paper's headline: "a clear inverse relationship between
// interestingness and the fraction of in-network votes ... visible early".
void fig4_innetwork_vs_final(const bench::Context& ctx) {
  const core::Fig4Result r =
      core::fig4_innetwork_vs_final(ctx.synthetic.corpus);
  print_groups("after first 6 votes", r.after_6);
  print_groups("after first 10 votes", r.after_10);
  print_groups("after first 20 votes", r.after_20);

  std::printf(
      "Spearman correlation between v10 and final votes: %.2f\n"
      "(paper: a clear inverse relationship, visible within 6-10 votes)\n",
      r.spearman_v10_final);
}

// Figure 5 and §5.2: the C4.5 decision tree over early-vote features.
// Paper results to reproduce in shape:
//   - the learned tree splits on v10 first, then fans1 (Fig. 5);
//   - 10-fold cross-validation classifies 174/207 (84%) correctly;
//   - on 48 held-out top-user queue stories: TP=4 TN=32 FP=11 FN=1;
//   - precision: Digg's own promotion 0.36 (5/14) vs this predictor 0.57
//     (4/7) — the social signal beats the platform's decision.
// Also runs the extended feature set and baseline learners as ablations.
void fig5_decision_tree(const bench::Context& ctx) {
  stats::Rng rng = ctx.rng;
  const core::Fig5Result r =
      core::fig5_prediction(ctx.synthetic.corpus, core::Fig5Params{}, rng);

  std::printf("learned C4.5 tree (paper Fig. 5 analogue):\n%s\n",
              r.predictor.tree().render().c_str());

  stats::TextTable table({"result", "paper", "measured"});
  table.add_row(
      {"training stories", "207",
       stats::fmt(static_cast<std::int64_t>(r.training_stories))});
  table.add_row(
      {"10-fold CV correct", "174/207 (84.1%)",
       stats::fmt(static_cast<std::int64_t>(
           r.cross_validation.pooled.correct())) +
           "/" +
           stats::fmt(static_cast<std::int64_t>(
               r.cross_validation.pooled.total())) +
           " (" + stats::fmt_pct(r.cross_validation.pooled.accuracy()) + ")"});
  table.add_row({"held-out top-user stories", "48",
                 stats::fmt(static_cast<std::int64_t>(r.holdout_stories))});
  table.add_row({"held-out confusion", "TP=4 TN=32 FP=11 FN=1",
                 r.holdout.to_string()});
  table.add_row({"Digg promotion precision", "0.36 (5/14)",
                 stats::fmt(r.digg_precision(), 2) + " (" +
                     stats::fmt(static_cast<std::int64_t>(
                         r.digg_promoted_interesting)) +
                     "/" +
                     stats::fmt(static_cast<std::int64_t>(r.digg_promoted)) +
                     ")"});
  table.add_row({"our predictor precision", "0.57 (4/7)",
                 stats::fmt(r.our_precision(), 2) + " (" +
                     stats::fmt(static_cast<std::int64_t>(
                         r.ours_predicted_interesting)) +
                     "/" +
                     stats::fmt(static_cast<std::int64_t>(r.ours_predicted)) +
                     ")"});
  std::printf("%s\n", table.render().c_str());

  // Ablation: extended early-vote features (v6, v20, influence10).
  core::Fig5Params extended;
  extended.features = core::FeatureSet::kExtended;
  stats::Rng rng_ext = rng.fork();
  const core::Fig5Result ext =
      core::fig5_prediction(ctx.synthetic.corpus, extended, rng_ext);

  // Baselines on the paper's feature encoding.
  const std::vector<core::StoryFeatures> features =
      core::extract_features(ctx.synthetic.corpus.front_page,
                             ctx.synthetic.corpus.network);
  const ml::Dataset dataset = core::InterestingnessPredictor::make_dataset(
      features, core::FeatureSet::kPaper);
  stats::Rng rng_b = rng.fork();
  const auto majority_cv =
      ml::cross_validate(ml::majority_trainer(), dataset, 10, rng_b);
  const auto stump_cv =
      ml::cross_validate(ml::stump_trainer(), dataset, 10, rng_b);
  const auto logistic_cv =
      ml::cross_validate(ml::logistic_trainer(), dataset, 10, rng_b);
  ml::ForestParams forest_params;
  forest_params.tree_count = 25;
  const auto forest_cv = ml::cross_validate(
      ml::forest_trainer(forest_params, /*seed=*/91), dataset, 10, rng_b);

  stats::TextTable ablation({"model", "10-fold CV accuracy"});
  ablation.add_row({"C4.5 (v10, fans1) [paper]",
                    stats::fmt_pct(r.cross_validation.pooled.accuracy())});
  ablation.add_row({"C4.5 (v6,v10,v20,fans1,influence10)",
                    stats::fmt_pct(ext.cross_validation.pooled.accuracy())});
  ablation.add_row(
      {"majority class", stats::fmt_pct(majority_cv.pooled.accuracy())});
  ablation.add_row(
      {"decision stump", stats::fmt_pct(stump_cv.pooled.accuracy())});
  ablation.add_row({"logistic regression",
                    stats::fmt_pct(logistic_cv.pooled.accuracy())});
  ablation.add_row({"bagged C4.5 forest (25 trees)",
                    stats::fmt_pct(forest_cv.pooled.accuracy())});
  std::printf("ablation:\n%s", ablation.render().c_str());
}

// Beyond the paper's single operating point: threshold sweep of the §5.2
// predictor (ROC / precision-recall / AUC over C4.5 leaf probabilities) and
// a bootstrap confidence interval on the precision gap between the social-
// signal predictor and the platform's own promotion decision. The paper's
// 0.57-vs-0.36 comparison rests on 48 stories; the interval shows how much
// of the reproduced gap survives resampling.
void fig5_roc(const bench::Context& ctx) {
  const data::Corpus& corpus = ctx.synthetic.corpus;
  // Leak-free scores for EVERY top-user queue story via k-fold: each fold
  // is scored by a predictor trained on the front page minus that fold
  // (mirroring fig5's train/holdout separation, but covering the whole
  // candidate population instead of one 48-story sample).
  const auto candidates = core::top_user_testset(corpus);
  const auto holdout_features =
      core::extract_features(candidates, corpus.network);

  constexpr std::size_t kFolds = 6;
  std::vector<ml::Scored> scored(candidates.size());
  std::vector<double> ours_outcome(candidates.size(),
                                   std::numeric_limits<double>::quiet_NaN());
  std::vector<double> digg_outcome(candidates.size(),
                                   std::numeric_limits<double>::quiet_NaN());
  for (std::size_t fold = 0; fold < kFolds; ++fold) {
    std::unordered_set<platform::StoryId> fold_ids;
    for (std::size_t i = fold; i < candidates.size(); i += kFolds)
      fold_ids.insert(candidates[i].id);
    std::vector<data::Story> train_stories;
    for (const auto& s : corpus.front_page)
      if (!fold_ids.count(s.id)) train_stories.push_back(s);
    const auto train_features =
        core::extract_features(train_stories, corpus.network);
    const auto predictor =
        core::InterestingnessPredictor::train(train_features);
    for (std::size_t i = fold; i < candidates.size(); i += kFolds) {
      const core::StoryFeatures& f = holdout_features[i];
      scored[i] = ml::Scored{predictor.predict_proba(f), f.interesting};
      if (predictor.predict(f))
        ours_outcome[i] = f.interesting ? 1.0 : 0.0;
      if (candidates[i].promoted())
        digg_outcome[i] = f.interesting ? 1.0 : 0.0;
    }
  }
  std::printf(
      "holdout candidates: %zu (all top-user queue stories, %zu-fold "
      "leak-free scoring)\n\n",
      candidates.size(), kFolds);

  std::printf("ROC AUC: %.3f   PR AUC: %.3f   precision@recall>=0.8: %.3f\n\n",
              ml::roc_auc(scored), ml::pr_auc(scored),
              ml::precision_at_recall(scored, 0.8));

  stats::TextTable curve({"threshold", "recall (TPR)", "FPR", "precision"});
  const auto points = ml::roc_curve(scored);
  const std::size_t stride = std::max<std::size_t>(1, points.size() / 12);
  for (std::size_t i = 0; i < points.size(); i += stride) {
    curve.add_row({stats::fmt(points[i].threshold, 3),
                   stats::fmt(points[i].tpr, 2), stats::fmt(points[i].fpr, 2),
                   stats::fmt(points[i].precision, 2)});
  }
  std::printf("%s\n", curve.render().c_str());

  // Bootstrap CI of (our precision - Digg's precision) over the candidates.
  stats::PairedSample sample;
  sample.a = ours_outcome;
  sample.b = digg_outcome;
  stats::Rng boot_rng = stats::Rng(ctx.rng).fork();
  const stats::Interval gap = stats::bootstrap_paired_diff_ci(
      sample, [](const std::vector<double>& v) { return stats::mean(v); },
      2000, 0.95, boot_rng);
  std::printf(
      "precision gap (ours - digg): %.3f, 95%% bootstrap CI [%.3f, %.3f]\n"
      "(paper point estimate: 0.57 - 0.36 = 0.21 on 48 stories)\n",
      gap.point, gap.lo, gap.hi);
}

// The paper's final (unnumbered) figure: scatter of friends+1 vs fans+1 for
// all users in the dataset, with top users highlighted — top users have more
// of both. Rendered here as log-binned medians plus summary statistics.
void fig6_friends_fans(const bench::Context& ctx) {
  const auto scatter = core::friends_fans_scatter(ctx.synthetic.corpus, 100);

  // Log-binned profile: median fans+1 per friends+1 octave.
  stats::TextTable profile(
      {"friends+1 bin", "users", "median fans+1 (all)", "top users in bin"});
  for (std::size_t lo = 1; lo <= 2048; lo *= 2) {
    const std::size_t hi = lo * 2;
    std::vector<double> fans;
    std::size_t top_count = 0;
    for (const auto& p : scatter) {
      if (p.friends_plus_1 >= lo && p.friends_plus_1 < hi) {
        fans.push_back(static_cast<double>(p.fans_plus_1));
        if (p.top_user) ++top_count;
      }
    }
    if (fans.empty()) continue;
    const stats::Summary s = stats::summarize(fans);
    // Built by append: the `"[" + fmt(..) + ","` rvalue chain trips GCC 12's
    // -Wrestrict false positive (PR105651) at -O2, which CI's -Werror promotes.
    std::string bucket = "[";
    bucket += stats::fmt(static_cast<std::int64_t>(lo));
    bucket += ",";
    bucket += stats::fmt(static_cast<std::int64_t>(hi));
    bucket += ")";
    profile.add_row({std::move(bucket),
                     stats::fmt(static_cast<std::int64_t>(s.n)),
                     stats::fmt(s.median, 1),
                     stats::fmt(static_cast<std::int64_t>(top_count))});
  }
  std::printf("%s\n", profile.render().c_str());

  double top_friends = 0.0, top_fans = 0.0, top_n = 0.0;
  double all_friends = 0.0, all_fans = 0.0, all_n = 0.0;
  std::vector<double> log_friends, log_fans;
  for (const auto& p : scatter) {
    all_friends += static_cast<double>(p.friends_plus_1);
    all_fans += static_cast<double>(p.fans_plus_1);
    ++all_n;
    log_friends.push_back(std::log(static_cast<double>(p.friends_plus_1)));
    log_fans.push_back(std::log(static_cast<double>(p.fans_plus_1)));
    if (p.top_user) {
      top_friends += static_cast<double>(p.friends_plus_1);
      top_fans += static_cast<double>(p.fans_plus_1);
      ++top_n;
    }
  }
  stats::TextTable table({"statistic", "paper", "measured"});
  table.add_row({"users in scatter", "~16,600+",
                 stats::fmt(static_cast<std::int64_t>(all_n))});
  table.add_row({"mean fans+1, top users vs all", "top users far higher",
                 stats::fmt(top_fans / top_n, 1) + " vs " +
                     stats::fmt(all_fans / all_n, 1)});
  table.add_row({"mean friends+1, top users vs all", "top users far higher",
                 stats::fmt(top_friends / top_n, 1) + " vs " +
                     stats::fmt(all_friends / all_n, 1)});
  table.add_row({"log-log friends/fans correlation", "strongly positive",
                 stats::fmt(stats::pearson(log_friends, log_fans), 2)});
  std::printf("%s", table.render().c_str());
}

// Section 3's quoted platform statistics:
//   - "of the more than 15,000 front page stories submitted by the top 1000
//     Digg users ... the top 3% of the users were responsible for 35% of the
//     submissions";
//   - "we did not see any front-page stories with fewer than 43 votes, nor
//     did we see any stories in the upcoming queue with more than 42 votes"
//     (the latter holds at promotion time under the count-and-rate rule;
//     stranded fan-wave stories can exceed it later — see EXPERIMENTS.md).
void text_activity_skew(const bench::Context& ctx) {
  const core::ActivitySkewResult r =
      core::text_activity_skew(ctx.synthetic.corpus);

  stats::TextTable table({"statistic", "paper", "measured"});
  table.add_row({"top 3% share of front-page submissions", "35%",
                 stats::fmt_pct(r.top3pct_submission_share)});
  table.add_row(
      {"minimum front-page story votes", ">= 43",
       stats::fmt(static_cast<std::int64_t>(r.min_front_page_votes))});
  table.add_row({"max upcoming-story votes within first day", "<= 42 at scrape",
                 stats::fmt(static_cast<std::int64_t>(
                     r.max_upcoming_votes_within_day))});
  table.add_row({"max upcoming-story votes (final)", "n/a",
                 stats::fmt(static_cast<std::int64_t>(r.max_upcoming_votes))});
  table.add_row({"front-page stories", "~200",
                 stats::fmt(static_cast<std::int64_t>(r.front_page_count))});
  table.add_row({"upcoming stories", "~900",
                 stats::fmt(static_cast<std::int64_t>(r.upcoming_count))});
  std::printf("%s", table.render().c_str());
}

}  // namespace digg::figures
