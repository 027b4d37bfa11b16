#pragma once
// Early-vote feature extraction and interestingness labeling (§5).
//
// The paper's classifier uses two attributes per story: v10 (in-network
// votes within the first ten votes, not counting the submitter) and fans1
// (the submitter's fan count), with the boolean class "interesting" =
// final votes > 520. We also extract v6, v20 and early influence so the
// extended predictor and the Fig. 4 analysis share one pass.

#include <cstddef>
#include <vector>

#include "src/data/corpus.h"
#include "src/digg/types.h"

namespace digg::core {

/// The paper's interestingness threshold: "We define a story to be
/// interesting if it receives at least 520 votes" (§5.1, footnote 3: 500
/// suggested by Fig. 2(a), raised to 520 to keep two borderline top-user
/// stories in the sample).
inline constexpr std::size_t kInterestingnessThreshold = 520;

struct StoryFeatures {
  platform::StoryId story = 0;
  platform::UserId submitter = 0;
  std::size_t v6 = 0;    // in-network votes within first 6 (excl. submitter)
  std::size_t v10 = 0;   // ... within first 10 — the paper's v10
  std::size_t v20 = 0;   // ... within first 20
  std::size_t fans1 = 0;      // submitter's fan count — the paper's fans1
  std::size_t influence10 = 0;  // influence after 10 votes (extension)
  std::size_t final_votes = 0;
  bool interesting = false;   // final_votes > threshold

  friend bool operator==(const StoryFeatures&, const StoryFeatures&) = default;
};

/// Extracts features for one story.
[[nodiscard]] StoryFeatures extract_features(
    const data::Story& story, const graph::Digraph& network,
    std::size_t threshold = kInterestingnessThreshold);

/// Extracts features for a whole sample.
[[nodiscard]] std::vector<StoryFeatures> extract_features(
    const std::vector<data::Story>& stories, const graph::Digraph& network,
    std::size_t threshold = kInterestingnessThreshold);

/// Candidates for the §5.2 held-out set, mirroring the paper's scrape of
/// the upcoming queue: stories submitted by top users (rank < `rank_cutoff`
/// in corpus.top_users) that, `scrape_delay` minutes after submission, were
/// still in the queue (not yet promoted) yet had gathered at least
/// `min_votes` votes beyond the submitter's digg. Final vote counts come
/// from the full record, so stories promoted *after* the scrape are part of
/// the test population (14 of the paper's 48 were).
[[nodiscard]] std::vector<data::Story> top_user_testset(
    const data::Corpus& corpus, std::size_t rank_cutoff = 100,
    std::size_t min_votes = 10,
    platform::Minutes scrape_delay = 6.0 * 60.0);

}  // namespace digg::core
