#include "src/core/experiment.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "src/core/cascade.h"
#include "src/core/influence.h"
#include "src/digg/user.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/runtime/parallel.h"

namespace digg::core {

stats::TimeSeries vote_timeseries(const data::Story& story) {
  stats::TimeSeries series;
  const auto times = story.times();
  for (std::size_t i = 0; i < times.size(); ++i) {
    series.append(times[i] - story.submitted_at,
                  static_cast<double>(i + 1));
  }
  return series;
}

Fig1Result fig1_vote_dynamics(const data::Corpus& corpus, std::size_t count,
                              stats::Rng& rng) {
  obs::Span span("core.fig1_vote_dynamics");
  if (corpus.front_page.empty())
    throw std::invalid_argument("fig1: no front-page stories");
  std::vector<std::size_t> order(corpus.front_page.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng.engine());
  order.resize(std::min(count, order.size()));

  Fig1Result result;
  for (std::size_t idx : order) {
    const data::Story& s = corpus.front_page[idx];
    Fig1Result::StoryCurve curve;
    curve.story = s.id;
    curve.series = vote_timeseries(s);
    if (s.promoted_at) {
      const platform::Minutes rel = *s.promoted_at - s.submitted_at;
      curve.promoted_after = rel;
      curve.votes_at_promotion = s.votes_before(*s.promoted_at + 1e-9);
      curve.post_promotion_half_life = curve.series.half_life(rel);
    }
    result.curves.push_back(std::move(curve));
  }
  return result;
}

Fig2aResult fig2a_vote_histogram(const data::Corpus& corpus) {
  obs::Span span("core.fig2a_vote_histogram");
  Fig2aResult result{stats::LinearHistogram(0.0, 4000.0, 40), 0.0, 0.0, {}};
  const std::vector<double> votes = data::final_votes(corpus.front_page);
  result.histogram.add_many(votes);
  if (!votes.empty()) {
    const double n = static_cast<double>(votes.size());
    result.fraction_below_500 =
        static_cast<double>(std::count_if(votes.begin(), votes.end(),
                                          [](double v) { return v < 500.0; })) /
        n;
    result.fraction_above_1500 =
        static_cast<double>(
            std::count_if(votes.begin(), votes.end(),
                          [](double v) { return v > 1500.0; })) /
        n;
  }
  result.votes_summary = stats::summarize(votes);
  return result;
}

Fig2bResult fig2b_user_activity(const data::Corpus& corpus) {
  obs::Span span("core.fig2b_user_activity");
  Fig2bResult result;
  const data::UserActivity activity = data::user_activity(corpus);
  std::vector<std::int64_t> votes_sample;
  for (std::size_t u = 0; u < corpus.user_count(); ++u) {
    if (activity.submissions[u] > 0) {
      result.submissions_per_user.add(activity.submissions[u]);
      ++result.distinct_submitters;
    }
    if (activity.votes[u] > 0) {
      result.votes_per_user.add(activity.votes[u]);
      votes_sample.push_back(activity.votes[u]);
      ++result.distinct_voters;
    }
  }
  if (!votes_sample.empty())
    result.votes_fit = stats::fit_power_law(votes_sample, 1);
  return result;
}

Fig3aResult fig3a_influence(const data::Corpus& corpus) {
  obs::Span span("core.fig3a_influence");
  Fig3aResult result;
  std::size_t under_10_fans = 0;
  std::size_t visible_200_after_10 = 0;
  // Per-story influence profiles are independent read-only network scans —
  // the hot loop. Profiles land by story index; aggregation stays serial.
  const auto profiles = runtime::parallel_map<std::vector<std::size_t>>(
      corpus.front_page.size(), [&](std::size_t i) {
        // Checkpoints count total votes; "after 10 votes" = submitter + 10.
        return influence_profile(corpus.front_page[i], corpus.network,
                                 {1, 11, 21});
      });
  for (const std::vector<std::size_t>& profile : profiles) {
    result.at_submission.push_back(profile[0]);
    result.after_10.push_back(profile[1]);
    result.after_20.push_back(profile[2]);
    if (profile[0] < 10) ++under_10_fans;
    if (profile[1] >= 200) ++visible_200_after_10;
  }
  const double n = std::max<std::size_t>(1, corpus.front_page.size());
  result.fraction_submitters_under_10_fans =
      static_cast<double>(under_10_fans) / n;
  result.fraction_visible_to_200_after_10 =
      static_cast<double>(visible_200_after_10) / n;
  return result;
}

Fig3bResult fig3b_cascades(const data::Corpus& corpus) {
  obs::Span span("core.fig3b_cascades");
  Fig3bResult result;
  std::size_t half_of_10 = 0;
  std::size_t ten_after_20 = 0;
  std::size_t ten_after_30 = 0;
  const auto cascades = runtime::parallel_map<std::vector<std::size_t>>(
      corpus.front_page.size(), [&](std::size_t i) {
        return cascade_profile(corpus.front_page[i], corpus.network,
                               {10, 20, 30});
      });
  for (const std::vector<std::size_t>& cascade : cascades) {
    result.cascade_after_10.add(static_cast<std::int64_t>(cascade[0]));
    result.cascade_after_20.add(static_cast<std::int64_t>(cascade[1]));
    result.cascade_after_30.add(static_cast<std::int64_t>(cascade[2]));
    if (cascade[0] >= 5) ++half_of_10;
    if (cascade[1] >= 10) ++ten_after_20;
    if (cascade[2] >= 10) ++ten_after_30;
  }
  const double n = std::max<std::size_t>(1, corpus.front_page.size());
  result.frac_half_of_first10 = static_cast<double>(half_of_10) / n;
  result.frac_10plus_after20 = static_cast<double>(ten_after_20) / n;
  result.frac_10plus_after30 = static_cast<double>(ten_after_30) / n;
  return result;
}

namespace {

std::vector<Fig4Group> group_by_cascade(
    const std::vector<StoryFeatures>& features,
    std::size_t StoryFeatures::* member) {
  std::map<std::size_t, std::vector<double>> groups;
  for (const StoryFeatures& f : features) {
    groups[f.*member].push_back(static_cast<double>(f.final_votes));
  }
  std::vector<Fig4Group> out;
  out.reserve(groups.size());
  for (auto& [k, votes] : groups) {
    Fig4Group g;
    g.in_network_votes = k;
    g.final_votes = stats::summarize(std::move(votes));
    out.push_back(std::move(g));
  }
  return out;
}

}  // namespace

Fig4Result fig4_from_features(const std::vector<StoryFeatures>& features) {
  Fig4Result result;
  result.after_6 = group_by_cascade(features, &StoryFeatures::v6);
  result.after_10 = group_by_cascade(features, &StoryFeatures::v10);
  result.after_20 = group_by_cascade(features, &StoryFeatures::v20);
  if (features.size() >= 3) {
    std::vector<double> v10s;
    std::vector<double> finals;
    for (const StoryFeatures& f : features) {
      v10s.push_back(static_cast<double>(f.v10));
      finals.push_back(static_cast<double>(f.final_votes));
    }
    result.spearman_v10_final = stats::spearman(v10s, finals);
  }
  return result;
}

Fig4Result fig4_innetwork_vs_final(const data::Corpus& corpus) {
  obs::Span span("core.fig4_innetwork_vs_final");
  return fig4_from_features(extract_features(corpus.front_page,
                                             corpus.network));
}

double Fig5Result::digg_precision() const {
  return digg_promoted == 0 ? 0.0
                            : static_cast<double>(digg_promoted_interesting) /
                                  static_cast<double>(digg_promoted);
}

double Fig5Result::our_precision() const {
  return ours_predicted == 0 ? 0.0
                             : static_cast<double>(ours_predicted_interesting) /
                                   static_cast<double>(ours_predicted);
}

Fig5Result fig5_prediction(const data::Corpus& corpus,
                           const Fig5Params& params, stats::Rng& rng) {
  obs::Span span("core.fig5_prediction");
  // Held-out "scraped from the queue" sample: top-user stories judged from
  // their first ten votes, final counts retrieved later (§5.2). Sampled
  // before training so the training set can exclude them.
  std::vector<data::Story> candidates = top_user_testset(
      corpus, params.top_user_rank_cutoff, params.min_holdout_votes);
  std::shuffle(candidates.begin(), candidates.end(), rng.engine());
  if (candidates.size() > params.holdout_size)
    candidates.resize(params.holdout_size);
  std::unordered_set<platform::StoryId> holdout_ids;
  for (const data::Story& s : candidates) holdout_ids.insert(s.id);

  std::vector<data::Story> train_stories;
  train_stories.reserve(corpus.front_page.size());
  for (const data::Story& s : corpus.front_page) {
    if (!holdout_ids.count(s.id)) train_stories.push_back(s);
  }
  const std::vector<StoryFeatures> train_features =
      extract_features(train_stories, corpus.network);
  if (train_features.empty())
    throw std::invalid_argument("fig5: no front-page stories to train on");

  Fig5Result result{
      InterestingnessPredictor::train(train_features, params.features,
                                      params.c45),
      cross_validate_predictor(train_features, params.features, params.folds,
                               rng, params.c45),
      train_features.size(),
      {}, 0, 0, 0, 0, 0};

  const std::vector<StoryFeatures> holdout_features =
      extract_features(candidates, corpus.network);
  result.holdout_stories = candidates.size();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const StoryFeatures& f = holdout_features[i];
    const bool predicted = result.predictor.predict(f);
    result.holdout.add(f.interesting, predicted);

    // Digg comparison: the platform's own judgement is whether the story
    // was (eventually) promoted by the 43-vote June-2006 rule.
    if (candidates[i].promoted()) {
      ++result.digg_promoted;
      if (f.interesting) ++result.digg_promoted_interesting;
    }
    if (predicted) {
      ++result.ours_predicted;
      if (f.interesting) ++result.ours_predicted_interesting;
    }
  }
  return result;
}

ActivitySkewResult text_activity_skew(const data::Corpus& corpus) {
  obs::Span span("core.text_activity_skew");
  ActivitySkewResult result;
  result.front_page_count = corpus.front_page.size();
  result.upcoming_count = corpus.upcoming.size();

  // The paper's statistic is over the population of front-page submitters
  // (the "top 1000 users" with promoted stories), not all registered users.
  std::vector<std::uint32_t> submissions(corpus.user_count(), 0);
  for (const data::Story& s : corpus.front_page) ++submissions[s.submitter];
  std::vector<std::uint32_t> submitter_counts;
  for (std::uint32_t c : submissions)
    if (c > 0) submitter_counts.push_back(c);
  result.top3pct_submission_share =
      submitter_counts.empty() ? 0.0
                               : platform::top_share(submitter_counts, 0.03);

  std::size_t min_fp = static_cast<std::size_t>(-1);
  for (const data::Story& s : corpus.front_page)
    min_fp = std::min(min_fp, s.vote_count());
  result.min_front_page_votes = corpus.front_page.empty() ? 0 : min_fp;

  std::size_t max_up = 0;
  std::size_t max_up_day = 0;
  for (const data::Story& s : corpus.upcoming) {
    max_up = std::max(max_up, s.vote_count());
    max_up_day = std::max(
        max_up_day,
        s.votes_before(s.submitted_at + platform::kMinutesPerDay));
  }
  result.max_upcoming_votes = max_up;
  result.max_upcoming_votes_within_day = max_up_day;
  return result;
}

std::vector<ScatterPoint> friends_fans_scatter(const data::Corpus& corpus,
                                               std::size_t top_rank_cutoff) {
  obs::Span span("core.friends_fans_scatter");
  std::unordered_set<data::UserId> in_dataset;
  auto absorb = [&](const std::vector<data::Story>& stories) {
    for (const data::Story& s : stories)
      for (data::UserId voter : s.voters()) in_dataset.insert(voter);
  };
  absorb(corpus.front_page);
  absorb(corpus.upcoming);

  std::unordered_set<data::UserId> top;
  for (std::size_t r = 0;
       r < std::min(top_rank_cutoff, corpus.top_users.size()); ++r)
    top.insert(corpus.top_users[r]);

  std::vector<ScatterPoint> out;
  out.reserve(in_dataset.size());
  for (data::UserId u : in_dataset) {
    if (u >= corpus.network.node_count()) continue;
    ScatterPoint p;
    p.friends_plus_1 = corpus.network.friend_count(u) + 1;
    p.fans_plus_1 = corpus.network.fan_count(u) + 1;
    p.top_user = top.count(u) > 0;
    out.push_back(p);
  }
  return out;
}

}  // namespace digg::core
