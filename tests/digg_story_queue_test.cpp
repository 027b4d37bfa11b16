#include <gtest/gtest.h>

#include "src/digg/queue.h"
#include "src/digg/story.h"
#include "tests/test_support.h"

namespace digg::platform {
namespace {

using test::add_vote;

TEST(Story, MakeStoryRecordsSubmitterDigg) {
  const Story s = make_story(1, 42, 100.0, 0.5);
  EXPECT_EQ(s.id, 1u);
  EXPECT_EQ(s.submitter, 42u);
  ASSERT_EQ(s.vote_count(), 1u);
  EXPECT_EQ(s.voters.front(), 42u);
  EXPECT_DOUBLE_EQ(s.times.front(), 100.0);
  EXPECT_EQ(s.phase, StoryPhase::kUpcoming);
  EXPECT_FALSE(s.promoted());
}

TEST(Story, MakeStoryRejectsBadQuality) {
  EXPECT_THROW(make_story(0, 0, 0.0, -0.1), std::invalid_argument);
  EXPECT_THROW(make_story(0, 0, 0.0, 1.1), std::invalid_argument);
}

TEST(Story, AddVoteAppendsChronologically) {
  Story s = make_story(0, 1, 0.0, 0.5);
  add_vote(s, 2, 5.0);
  add_vote(s, 3, 5.0);  // equal timestamps allowed (same simulation step)
  add_vote(s, 4, 9.0);
  EXPECT_EQ(s.vote_count(), 4u);
  EXPECT_THROW(add_vote(s, 5, 8.0), std::invalid_argument);
}

TEST(Story, AddVoteRejectsDuplicateVoter) {
  Story s = make_story(0, 1, 0.0, 0.5);
  add_vote(s, 2, 5.0);
  EXPECT_THROW(add_vote(s, 2, 6.0), std::invalid_argument);
  EXPECT_THROW(add_vote(s, 1, 6.0), std::invalid_argument);  // submitter
}

TEST(Story, FirstVoteMustBeSubmitter) {
  Story s;
  s.submitter = 7;
  EXPECT_THROW(add_vote(s, 8, 0.0), std::invalid_argument);
  add_vote(s, 7, 0.0);
  EXPECT_EQ(s.vote_count(), 1u);
}

TEST(Story, VotersInOrder) {
  Story s = make_story(0, 5, 0.0, 0.5);
  add_vote(s, 9, 1.0);
  add_vote(s, 3, 2.0);
  const auto vs = StoryView(s).voters();
  EXPECT_EQ(std::vector<UserId>(vs.begin(), vs.end()),
            (std::vector<UserId>{5, 9, 3}));
}

TEST(Story, VotesBeforeCutoff) {
  Story s = make_story(0, 1, 0.0, 0.5);
  add_vote(s, 2, 10.0);
  add_vote(s, 3, 20.0);
  EXPECT_EQ(s.votes_before(0.0), 0u);
  EXPECT_EQ(s.votes_before(10.0), 1u);   // strictly before
  EXPECT_EQ(s.votes_before(10.5), 2u);
  EXPECT_EQ(s.votes_before(1000.0), 3u);
}

TEST(Listing, NewestFirstOrdering) {
  Listing l;
  l.push_front(1);
  l.push_front(2);
  l.push_front(3);
  EXPECT_EQ(l.items(), (std::vector<StoryId>{3, 2, 1}));
}

TEST(Listing, RemoveAndContains) {
  Listing l;
  l.push_front(1);
  l.push_front(2);
  l.remove(1);
  EXPECT_EQ(l.items(), (std::vector<StoryId>{2}));
  l.remove(99);  // no-op
  EXPECT_EQ(l.size(), 1u);
}

TEST(Listing, PagesOfFifteen) {
  Listing l;
  for (StoryId id = 0; id < 40; ++id) l.push_front(id);
  const auto page0 = l.first_pages(1);
  ASSERT_EQ(page0.size(), kStoriesPerPage);
  EXPECT_EQ(page0.front(), 39u);  // newest on top
  EXPECT_EQ(page0.back(), 25u);
  EXPECT_EQ(l.first_pages(2).size(), 2 * kStoriesPerPage);
}

TEST(Listing, FirstPagesClampsToSize) {
  Listing l;
  for (StoryId id = 0; id < 20; ++id) l.push_front(id);
  EXPECT_EQ(l.first_pages(1).size(), 15u);
  EXPECT_EQ(l.first_pages(5).size(), 20u);
}

}  // namespace
}  // namespace digg::platform
