#include "src/core/features.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/digg/story.h"
#include "tests/test_support.h"

namespace digg::core {
namespace {

using test::add_vote;
using platform::make_story;

// fans(0) = {1..10}; everyone else unconnected.
graph::Digraph star_network() {
  graph::DigraphBuilder b(64);
  for (platform::UserId fan = 1; fan <= 10; ++fan) b.add_fan(0, fan);
  return b.build();
}

platform::Story story_with_alternating_votes(std::size_t extra_votes) {
  // Votes alternate: fan of submitter, unconnected, fan, unconnected...
  platform::Story s = make_story(0, 0, 0.0, 0.5);
  platform::UserId fan = 1;
  platform::UserId outsider = 20;
  for (std::size_t k = 0; k < extra_votes; ++k) {
    const platform::Minutes t = static_cast<double>(k + 1);
    if (k % 2 == 0 && fan <= 10) {
      add_vote(s, fan++, t);
    } else {
      add_vote(s, outsider++, t);
    }
  }
  return s;
}

TEST(ExtractFeatures, CountsEarlyInNetworkVotes) {
  const platform::Story s = story_with_alternating_votes(20);
  const StoryFeatures f = extract_features(s, star_network());
  EXPECT_EQ(f.v6, 3u);
  EXPECT_EQ(f.v10, 5u);
  EXPECT_EQ(f.v20, 10u);
  EXPECT_EQ(f.fans1, 10u);
  EXPECT_EQ(f.final_votes, 21u);
  EXPECT_FALSE(f.interesting);
  EXPECT_EQ(f.story, s.id);
  EXPECT_EQ(f.submitter, 0u);
}

TEST(ExtractFeatures, InterestingnessThreshold) {
  platform::Story s = make_story(0, 0, 0.0, 0.5);
  // Rebuild the vote columns wholesale; only the count matters here.
  s.voters.clear();
  s.times.clear();
  for (std::size_t i = 0; i < 521; ++i) {
    s.voters.push_back(static_cast<platform::UserId>(i));
    s.times.push_back(static_cast<double>(i));
  }
  s.submitter = 0;
  const StoryFeatures f = extract_features(s, star_network());
  EXPECT_EQ(f.final_votes, 521u);
  EXPECT_TRUE(f.interesting);  // 521 > 520

  s.voters.pop_back();
  s.times.pop_back();
  const StoryFeatures g = extract_features(s, star_network());
  EXPECT_FALSE(g.interesting);  // exactly 520 is NOT interesting
}

TEST(ExtractFeatures, CustomThreshold) {
  const platform::Story s = story_with_alternating_votes(30);
  const StoryFeatures f = extract_features(s, star_network(), 30);
  EXPECT_TRUE(f.interesting);  // 31 votes > 30
}

TEST(ExtractFeatures, SubmitterOutsideNetworkHasZeroFans) {
  platform::Story s = make_story(0, 1000, 0.0, 0.5);
  const StoryFeatures f = extract_features(s, star_network());
  EXPECT_EQ(f.fans1, 0u);
}

TEST(ExtractFeatures, BatchMatchesSingle) {
  // Owning stories outlive the views handed to the batch API.
  const platform::Story s10 = story_with_alternating_votes(10);
  const platform::Story s4 = story_with_alternating_votes(4);
  const std::vector<data::Story> stories = {s10, s4};
  const auto batch = extract_features(stories, star_network());
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].v10, extract_features(stories[0], star_network()).v10);
  EXPECT_EQ(batch[1].v6, extract_features(stories[1], star_network()).v6);
}

data::Corpus corpus_for_testset() {
  data::Corpus c;
  c.network = star_network();
  c.top_users = {0, 5};  // user 0 and 5 are "top"

  // Story A: top submitter, 12 quick votes, never promoted. Qualifies.
  platform::Story a = make_story(0, 0, 0.0, 0.5);
  for (platform::UserId u = 20; u < 32; ++u)
    add_vote(a, u, static_cast<double>(u - 19));
  c.add_story(a, data::Corpus::Section::kUpcoming);

  // Story B: top submitter, promoted before the scrape delay. Excluded.
  platform::Story b = make_story(1, 0, 0.0, 0.5);
  for (platform::UserId u = 32; u < 50; ++u)
    add_vote(b, u, static_cast<double>(u - 31));
  b.promoted_at = 30.0;
  b.phase = platform::StoryPhase::kFrontPage;
  c.add_story(b, data::Corpus::Section::kFrontPage);

  // Story C: top submitter, promoted well after the scrape. Qualifies.
  platform::Story d = make_story(2, 5, 0.0, 0.5);
  for (platform::UserId u = 50; u < 62; ++u)
    add_vote(d, u, static_cast<double>(u - 49));
  d.promoted_at = 10.0 * 60.0;  // 10 hours
  d.phase = platform::StoryPhase::kFrontPage;
  c.add_story(d, data::Corpus::Section::kFrontPage);

  // Story D: non-top submitter. Excluded.
  platform::Story e = make_story(3, 7, 0.0, 0.5);
  for (platform::UserId u = 40; u < 55; ++u)
    add_vote(e, u, static_cast<double>(u - 39));
  c.add_story(e, data::Corpus::Section::kUpcoming);

  // Story E: top submitter but too few votes by scrape time. Excluded.
  platform::Story f = make_story(4, 5, 0.0, 0.5);
  add_vote(f, 35, 1.0);
  c.add_story(f, data::Corpus::Section::kUpcoming);
  return c;
}

TEST(TopUserTestset, AppliesScrapeSemantics) {
  const data::Corpus c = corpus_for_testset();
  const auto testset =
      top_user_testset(c, /*rank_cutoff=*/2, /*min_votes=*/10,
                       /*scrape_delay=*/6.0 * 60.0);
  std::vector<platform::StoryId> ids;
  for (const auto& s : testset) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<platform::StoryId>{0, 2}));
}

TEST(TopUserTestset, RankCutoffRestrictsSubmitters) {
  const data::Corpus c = corpus_for_testset();
  const auto testset = top_user_testset(c, /*rank_cutoff=*/1, 10, 6.0 * 60.0);
  for (const auto& s : testset) EXPECT_EQ(s.submitter, 0u);
}

TEST(TopUserTestset, EmptyCorpusGivesEmptySet) {
  data::Corpus c;
  c.network = star_network();
  EXPECT_TRUE(top_user_testset(c).empty());
}

}  // namespace
}  // namespace digg::core
