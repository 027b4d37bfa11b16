#include "src/core/features.h"

#include <algorithm>

#include "src/core/cascade.h"
#include "src/core/influence.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/runtime/parallel.h"

namespace digg::core {

StoryFeatures extract_features(const data::Story& story,
                               const graph::Digraph& network,
                               std::size_t threshold) {
  StoryFeatures f;
  f.story = story.id;
  f.submitter = story.submitter;
  const std::vector<std::size_t> cascade =
      cascade_profile(story, network, {6, 10, 20});
  f.v6 = cascade[0];
  f.v10 = cascade[1];
  f.v20 = cascade[2];
  f.fans1 = story.submitter < network.node_count()
                ? network.fan_count(story.submitter)
                : 0;
  // Influence checkpoint counts total votes including the submitter's digg;
  // "after 10 votes" in Fig. 3(a) means 10 votes beyond the submitter.
  f.influence10 = influence_profile(story, network, {11})[0];
  f.final_votes = story.vote_count();
  f.interesting = f.final_votes > threshold;
  return f;
}

std::vector<StoryFeatures> extract_features(
    const std::vector<data::Story>& stories, const graph::Digraph& network,
    std::size_t threshold) {
  obs::Span span("core.extract_features");
  static obs::Counter& extracted =
      obs::Registry::global().counter("core.features_extracted");
  extracted.inc(stories.size());
  // Stories are independent (read-only CSR network scans); features land by
  // story index, so the output order matches the input for any thread count.
  return runtime::parallel_map<StoryFeatures>(
      stories.size(), [&](std::size_t i) {
        return extract_features(stories[i], network, threshold);
      });
}

std::vector<data::Story> top_user_testset(const data::Corpus& corpus,
                                          std::size_t rank_cutoff,
                                          std::size_t min_votes,
                                          platform::Minutes scrape_delay) {
  std::vector<data::Story> out;
  auto consider = [&](const data::Story& s) {
    if (!corpus.is_top_user(s.submitter, rank_cutoff)) return;
    const platform::Minutes scrape_time = s.submitted_at + scrape_delay;
    // Still in the upcoming queue at scrape time...
    if (s.promoted_at && *s.promoted_at <= scrape_time) return;
    // ...but already with >= min_votes votes beyond the submitter's digg.
    if (s.votes_before(scrape_time) < min_votes + 1) return;
    out.push_back(s);
  };
  for (const data::Story& s : corpus.upcoming) consider(s);
  for (const data::Story& s : corpus.front_page) consider(s);
  return out;
}

}  // namespace digg::core
