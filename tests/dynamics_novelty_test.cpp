#include "src/dynamics/novelty.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/digg/story.h"
#include "tests/test_support.h"

namespace digg::dynamics {
namespace {

// Builds a promoted story whose post-promotion votes follow the decay law
// with the given half-life exactly: the k-th vote arrives when
// A * (1 - 2^(-t/hl)) = k.
platform::Story story_with_half_life(double half_life, double amplitude,
                                     std::size_t votes) {
  platform::Story s = platform::make_story(0, 0, 0.0, 0.5);
  s.promoted_at = 100.0;
  s.phase = platform::StoryPhase::kFrontPage;
  test::add_vote(s, 1, 50.0);  // one pre-promotion vote
  for (std::size_t k = 1; k <= votes; ++k) {
    const double fraction = static_cast<double>(k) / amplitude;
    const double t =
        -half_life * std::log2(1.0 - fraction);  // invert the decay law
    test::add_vote(s, static_cast<platform::UserId>(k + 1), 100.0 + t);
  }
  return s;
}

TEST(NoveltyFit, RecoversKnownHalfLife) {
  const platform::Story s = story_with_half_life(1440.0, 400.0, 300);
  const auto fit = fit_novelty_decay(s);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->half_life_minutes, 1440.0, 150.0);
  EXPECT_NEAR(fit->amplitude, 400.0, 40.0);
  EXPECT_LT(fit->rmse, 2.0);
  EXPECT_EQ(fit->samples, 300u);
}

TEST(NoveltyFit, DistinguishesFastAndSlowDecay) {
  const auto fast = fit_novelty_decay(story_with_half_life(300.0, 200.0, 150));
  const auto slow =
      fit_novelty_decay(story_with_half_life(2880.0, 200.0, 150));
  ASSERT_TRUE(fast.has_value());
  ASSERT_TRUE(slow.has_value());
  EXPECT_LT(fast->half_life_minutes * 3.0, slow->half_life_minutes);
}

TEST(NoveltyFit, UnpromotedStoryReturnsNullopt) {
  platform::Story s = platform::make_story(0, 0, 0.0, 0.5);
  for (platform::UserId u = 1; u < 50; ++u)
    test::add_vote(s, u, static_cast<double>(u));
  EXPECT_FALSE(fit_novelty_decay(s).has_value());
}

TEST(NoveltyFit, TooFewPostPromotionVotesReturnsNullopt) {
  platform::Story s = platform::make_story(0, 0, 0.0, 0.5);
  s.promoted_at = 10.0;
  s.phase = platform::StoryPhase::kFrontPage;
  for (platform::UserId u = 1; u < 10; ++u)
    test::add_vote(s, u, 10.0 + static_cast<double>(u));
  EXPECT_FALSE(fit_novelty_decay(s, /*min_votes=*/20).has_value());
}

TEST(NoveltyFitAll, FitsOnlyQualifyingStories) {
  std::vector<platform::Story> stories;
  stories.push_back(story_with_half_life(1440.0, 300.0, 100));
  stories.push_back(platform::make_story(1, 0, 0.0, 0.5));  // unpromoted
  stories.push_back(story_with_half_life(720.0, 300.0, 100));
  const std::vector<platform::StoryView> views(stories.begin(), stories.end());
  const auto fits = fit_novelty_decay_all(views);
  EXPECT_EQ(fits.size(), 2u);
}

}  // namespace
}  // namespace digg::dynamics
