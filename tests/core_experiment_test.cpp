#include "src/core/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/data/synthetic.h"
#include "src/graph/generators.h"

namespace digg::core {
namespace {

// One shared corpus for all experiment-shape tests (generation is the
// expensive part). Uses the calibrated default scale — the promotion
// dynamics depend on realistic fan-wave sizes — with a reduced story count.
const data::SyntheticCorpus& shared_corpus() {
  static const data::SyntheticCorpus corpus = [] {
    stats::Rng rng(42);
    data::SyntheticParams params;
    params.story_count = 500;
    params.vote_model.step = 2.0;
    return data::generate_corpus(params, rng);
  }();
  return corpus;
}

TEST(VoteTimeseries, CumulativeAndAlignedToSubmission) {
  const data::Story& s = shared_corpus().corpus.front_page.front();
  const stats::TimeSeries ts = vote_timeseries(s);
  ASSERT_EQ(ts.size(), s.vote_count());
  EXPECT_DOUBLE_EQ(ts.times().front(), 0.0);
  EXPECT_DOUBLE_EQ(ts.values().front(), 1.0);
  EXPECT_DOUBLE_EQ(ts.values().back(), static_cast<double>(s.vote_count()));
  EXPECT_TRUE(std::is_sorted(ts.values().begin(), ts.values().end()));
}

TEST(Fig1, CurvesSaturateAndMostlyExplodeAtPromotion) {
  stats::Rng rng(1);
  const Fig1Result fig1 = fig1_vote_dynamics(shared_corpus().corpus, 40, rng);
  ASSERT_EQ(fig1.curves.size(), 40u);
  std::size_t exploding = 0;
  for (const auto& curve : fig1.curves) {
    ASSERT_TRUE(curve.promoted_after.has_value());
    const double tp = *curve.promoted_after;
    // Saturation (Fig. 1's flattening): the first post-promotion day brings
    // more votes than the last day of the horizon, for every story.
    const double first_day = curve.series.at(tp + 1440.0) - curve.series.at(tp);
    const double last_day =
        curve.series.values().back() -
        curve.series.at(curve.series.times().back() - 1440.0);
    EXPECT_GT(first_day, last_day);
    // Explosion at promotion for the typical story: the first two front-page
    // hours beat the average upcoming-queue rate. (Stories promoted purely
    // by a fast fan wave — dull top-user submissions — may not explode;
    // that is the §5 phenomenon itself, so only a majority is required.)
    const double pre_rate = curve.series.at(tp) / tp;
    const double post_rate =
        (curve.series.at(tp + 120.0) - curve.series.at(tp)) / 120.0;
    if (post_rate > pre_rate) ++exploding;
  }
  EXPECT_GT(exploding, 20u);
}

TEST(Fig1, RequestingMoreCurvesThanStoriesClamps) {
  stats::Rng rng(2);
  const Fig1Result fig1 =
      fig1_vote_dynamics(shared_corpus().corpus, 1000000, rng);
  EXPECT_EQ(fig1.curves.size(), shared_corpus().corpus.front_page.size());
}

TEST(Fig1, ThrowsWithoutFrontPage) {
  stats::Rng rng(1);
  data::Corpus empty;
  EXPECT_THROW(fig1_vote_dynamics(empty, 5, rng), std::invalid_argument);
}

TEST(Fig2a, BimodalFractionsRoughlyPaperShaped) {
  const Fig2aResult r = fig2a_vote_histogram(shared_corpus().corpus);
  EXPECT_EQ(r.histogram.total(), shared_corpus().corpus.front_page.size());
  // Paper: ~20% below 500 and ~20% above 1500. Accept a broad band.
  EXPECT_GT(r.fraction_below_500, 0.10);
  EXPECT_LT(r.fraction_below_500, 0.55);
  EXPECT_GT(r.fraction_above_1500, 0.05);
  EXPECT_LT(r.fraction_above_1500, 0.45);
  EXPECT_GT(r.votes_summary.median, 400.0);
  EXPECT_LT(r.votes_summary.median, 1600.0);
}

TEST(Fig2b, ActivityHeavyTailed) {
  const Fig2bResult r = fig2b_user_activity(shared_corpus().corpus);
  EXPECT_GT(r.distinct_voters, 1000u);
  EXPECT_GT(r.distinct_submitters, 10u);
  // Most users vote once or twice; a few vote on dozens of stories.
  EXPECT_GE(r.votes_per_user.max_value(), 20);
  EXPECT_EQ(r.votes_per_user.items().front().first, 1);
  EXPECT_GT(r.votes_fit.alpha, 1.2);
  // Submission counts skewed: someone submitted many front-page stories.
  EXPECT_GE(r.submissions_per_user.max_value(), 5);
}

TEST(Fig3a, InfluenceGrowsWithVotes) {
  const Fig3aResult r = fig3a_influence(shared_corpus().corpus);
  const std::size_t n = shared_corpus().corpus.front_page.size();
  ASSERT_EQ(r.at_submission.size(), n);
  ASSERT_EQ(r.after_10.size(), n);
  ASSERT_EQ(r.after_20.size(), n);
  double sum0 = 0.0, sum10 = 0.0, sum20 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum0 += static_cast<double>(r.at_submission[i]);
    sum10 += static_cast<double>(r.after_10[i]);
    sum20 += static_cast<double>(r.after_20[i]);
  }
  EXPECT_LT(sum0, sum10);
  EXPECT_LT(sum10, sum20);
  EXPECT_GT(r.fraction_visible_to_200_after_10, 0.05);
}

TEST(Fig3b, CascadesGrowWithVotes) {
  const Fig3bResult r = fig3b_cascades(shared_corpus().corpus);
  EXPECT_EQ(r.cascade_after_10.total(),
            shared_corpus().corpus.front_page.size());
  // Quoted §4.1 statistics should be in a plausible band.
  EXPECT_GT(r.frac_half_of_first10, 0.1);
  EXPECT_GE(r.frac_10plus_after30, r.frac_10plus_after20);
  // Cascade size after 10 votes can never exceed 10.
  EXPECT_LE(r.cascade_after_10.max_value(), 10);
  EXPECT_LE(r.cascade_after_20.max_value(), 20);
  EXPECT_LE(r.cascade_after_30.max_value(), 30);
}

TEST(Fig4, InverseRelationshipBetweenCascadeAndFinalVotes) {
  const Fig4Result r = fig4_innetwork_vs_final(shared_corpus().corpus);
  EXPECT_LT(r.spearman_v10_final, -0.3);  // the paper's headline relation
  ASSERT_FALSE(r.after_10.empty());
  // Median final votes at low v10 exceed median at high v10.
  const auto& groups = r.after_10;
  double low_median = 0.0, high_median = 0.0;
  for (const Fig4Group& g : groups) {
    if (g.in_network_votes <= 2 && g.final_votes.n >= 3)
      low_median = std::max(low_median, g.final_votes.median);
    if (g.in_network_votes >= 8 && g.final_votes.n >= 3)
      high_median = std::max(high_median, g.final_votes.median);
  }
  EXPECT_GT(low_median, high_median);
}

TEST(Fig4, GroupsSortedByCascadeSize) {
  const Fig4Result r = fig4_innetwork_vs_final(shared_corpus().corpus);
  for (std::size_t i = 1; i < r.after_6.size(); ++i)
    EXPECT_LT(r.after_6[i - 1].in_network_votes,
              r.after_6[i].in_network_votes);
}

TEST(Fig5, ReproducesPaperComparison) {
  stats::Rng rng(11);
  const Fig5Result r =
      fig5_prediction(shared_corpus().corpus, Fig5Params{}, rng);
  EXPECT_EQ(r.holdout_stories, r.holdout.total());
  EXPECT_LE(r.holdout_stories, 48u);
  EXPECT_GT(r.holdout_stories, 20u);
  EXPECT_GT(r.cross_validation.pooled.accuracy(), 0.65);
  // 500 stories at the calibrated ~20% promotion rate, minus the holdout's
  // front-page members.
  EXPECT_GT(r.training_stories, 40u);
  // Consistency of the precision bookkeeping.
  EXPECT_LE(r.digg_promoted_interesting, r.digg_promoted);
  EXPECT_LE(r.ours_predicted_interesting, r.ours_predicted);
  EXPECT_EQ(r.ours_predicted, r.holdout.tp + r.holdout.fp);
  EXPECT_EQ(r.ours_predicted_interesting, r.holdout.tp);
}

TEST(Fig5, HoldoutExcludedFromTraining) {
  stats::Rng rng(13);
  Fig5Params params;
  const Fig5Result r =
      fig5_prediction(shared_corpus().corpus, params, rng);
  EXPECT_LE(r.training_stories + r.holdout_stories,
            shared_corpus().corpus.front_page.size() +
                shared_corpus().corpus.upcoming.size());
  EXPECT_GE(shared_corpus().corpus.front_page.size(), r.training_stories);
}

TEST(TextActivitySkew, PromotionBoundaryAndConcentration) {
  const ActivitySkewResult r = text_activity_skew(shared_corpus().corpus);
  EXPECT_GE(r.min_front_page_votes, 43u);  // the paper's hard boundary
  EXPECT_GT(r.top3pct_submission_share, 0.15);  // strong concentration
  EXPECT_EQ(r.front_page_count, shared_corpus().corpus.front_page.size());
  EXPECT_EQ(r.upcoming_count, shared_corpus().corpus.upcoming.size());
}

// A corpus over `network` holding one story whose votes (a minute apart)
// come from `voters` — all the scatter reads is who voted and the graph.
data::Corpus corpus_with_voters(graph::Digraph network,
                                const std::vector<platform::UserId>& voters) {
  data::Corpus corpus;
  corpus.network = std::move(network);
  platform::Story story;
  story.submitter = voters.front();
  story.voters = voters;
  for (std::size_t k = 0; k < voters.size(); ++k)
    story.times.push_back(static_cast<double>(k));
  corpus.add_story(story, data::Corpus::Section::kUpcoming);
  return corpus;
}

TEST(FriendsFansScatter, PlusOneConvention) {
  graph::DigraphBuilder builder;
  builder.add_follow(0, 1);
  auto scatter =
      friends_fans_scatter(corpus_with_voters(builder.build(), {0, 1}), 100);
  ASSERT_EQ(scatter.size(), 2u);
  std::sort(scatter.begin(), scatter.end(),
            [](const ScatterPoint& a, const ScatterPoint& b) {
              return a.friends_plus_1 < b.friends_plus_1;
            });
  EXPECT_EQ(scatter[0].friends_plus_1, 1u);  // user 1: 0 friends + 1
  EXPECT_EQ(scatter[0].fans_plus_1, 2u);     // 1 fan + 1
  EXPECT_EQ(scatter[1].friends_plus_1, 2u);  // user 0: 1 friend + 1
  EXPECT_EQ(scatter[1].fans_plus_1, 1u);     // 0 fans + 1
}

TEST(FriendsFansScatter, TopOfPreferentialGraphDominates) {
  stats::Rng rng(5);
  graph::PreferentialAttachmentParams params;
  params.node_count = 1000;
  std::vector<platform::UserId> everyone(params.node_count);
  std::iota(everyone.begin(), everyone.end(), platform::UserId{0});
  data::Corpus corpus = corpus_with_voters(
      graph::preferential_attachment(params, rng), everyone);
  // Flag the 50 earliest arrivals: the best-connected user is one of them.
  corpus.top_users.assign(everyone.begin(), everyone.begin() + 50);
  const auto scatter = friends_fans_scatter(corpus, 50);
  ASSERT_EQ(scatter.size(), everyone.size());
  const auto best = std::max_element(
      scatter.begin(), scatter.end(),
      [](const ScatterPoint& a, const ScatterPoint& b) {
        return a.fans_plus_1 < b.fans_plus_1;
      });
  EXPECT_TRUE(best->top_user);
}

TEST(FriendsFansScatter, TopUsersBetterConnected) {
  const auto scatter = friends_fans_scatter(shared_corpus().corpus, 100);
  double top_fans = 0.0, top_n = 0.0, other_fans = 0.0, other_n = 0.0;
  for (const ScatterPoint& p : scatter) {
    if (p.top_user) {
      top_fans += static_cast<double>(p.fans_plus_1);
      ++top_n;
    } else {
      other_fans += static_cast<double>(p.fans_plus_1);
      ++other_n;
    }
  }
  ASSERT_GT(top_n, 0.0);
  ASSERT_GT(other_n, 0.0);
  EXPECT_GT(top_fans / top_n, 5.0 * other_fans / other_n);
}

}  // namespace
}  // namespace digg::core
