#include "src/digg/platform.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace digg::platform {
namespace {

bool listed(const Listing& listing, StoryId id) {
  const auto& items = listing.items();
  return std::find(items.begin(), items.end(), id) != items.end();
}

Platform make_platform(std::size_t users = 64, std::size_t threshold = 3) {
  graph::DigraphBuilder b(users);
  // Users 1..5 are fans of user 0.
  for (UserId fan = 1; fan <= 5; ++fan) b.add_fan(0, fan);
  return Platform(b.build(), std::vector<UserProfile>(users),
                  std::make_unique<VoteCountPolicy>(threshold));
}

TEST(Platform, SubmitPlacesStoryUpcoming) {
  Platform p = make_platform();
  const StoryId id = p.submit(0, 0.5, 10.0);
  EXPECT_EQ(p.story_count(), 1u);
  EXPECT_TRUE(listed(p.upcoming(), id));
  EXPECT_FALSE(listed(p.front_page(), id));
  EXPECT_EQ(p.story(id).vote_count(), 1u);
  EXPECT_EQ(p.visibility(id).influence(), 5u);  // 0's five fans
}

TEST(Platform, VoteTriggersPromotionAtThreshold) {
  Platform p = make_platform(64, 3);
  const StoryId id = p.submit(0, 0.5, 0.0);
  EXPECT_FALSE(p.vote(id, 10, 1.0));
  EXPECT_TRUE(p.vote(id, 11, 2.0));  // third vote
  EXPECT_TRUE(p.story(id).promoted());
  EXPECT_DOUBLE_EQ(*p.story(id).promoted_at, 2.0);
  EXPECT_TRUE(listed(p.front_page(), id));
  EXPECT_FALSE(listed(p.upcoming(), id));
  EXPECT_EQ(p.story(id).phase, StoryPhase::kFrontPage);
}

TEST(Platform, VotesAfterPromotionDoNotRePromote) {
  Platform p = make_platform(64, 2);
  const StoryId id = p.submit(0, 0.5, 0.0);
  EXPECT_TRUE(p.vote(id, 10, 1.0));
  EXPECT_FALSE(p.vote(id, 11, 2.0));
  EXPECT_DOUBLE_EQ(*p.story(id).promoted_at, 1.0);
}

TEST(Platform, DuplicateVoteThrows) {
  Platform p = make_platform();
  const StoryId id = p.submit(0, 0.5, 0.0);
  p.vote(id, 10, 1.0);
  EXPECT_THROW(p.vote(id, 10, 2.0), std::invalid_argument);
  EXPECT_THROW(p.vote(id, 0, 2.0), std::invalid_argument);  // submitter
}

TEST(Platform, UnknownIdsThrow) {
  Platform p = make_platform();
  EXPECT_THROW(p.submit(1000, 0.5, 0.0), std::out_of_range);
  EXPECT_THROW(p.vote(5, 1, 0.0), std::out_of_range);
  const StoryId id = p.submit(0, 0.5, 0.0);
  EXPECT_THROW(p.vote(id, 1000, 0.0), std::out_of_range);
  EXPECT_THROW(p.story(99), std::out_of_range);
  EXPECT_THROW(p.visibility(99), std::out_of_range);
}

TEST(Platform, ExpireStaleRemovesOldUpcoming) {
  Platform p = make_platform();
  const StoryId oldie = p.submit(0, 0.5, 0.0);
  const StoryId fresh = p.submit(1, 0.5, 2000.0);
  p.expire_stale(0.5 + kMinutesPerDay + 100.0);
  EXPECT_EQ(p.story(oldie).phase, StoryPhase::kExpired);
  EXPECT_FALSE(listed(p.upcoming(), oldie));
  EXPECT_TRUE(listed(p.upcoming(), fresh));
}

TEST(Platform, VotingOnExpiredStoryThrows) {
  Platform p = make_platform();
  const StoryId id = p.submit(0, 0.5, 0.0);
  p.expire_stale(kMinutesPerDay * 2.0);
  EXPECT_THROW(p.vote(id, 10, kMinutesPerDay * 2.0), std::logic_error);
}

TEST(Platform, PromotedStoriesDoNotExpire) {
  Platform p = make_platform(64, 2);
  const StoryId id = p.submit(0, 0.5, 0.0);
  p.vote(id, 10, 1.0);
  p.expire_stale(kMinutesPerDay * 3.0);
  EXPECT_EQ(p.story(id).phase, StoryPhase::kFrontPage);
}

TEST(Platform, VisibilityTracksVotes) {
  Platform p = make_platform();
  const StoryId id = p.submit(0, 0.5, 0.0);
  const std::size_t before = p.visibility(id).influence();
  p.vote(id, 1, 1.0);  // fan 1 votes; had no fans of their own
  EXPECT_EQ(p.visibility(id).influence(), before - 1);
}

TEST(Platform, RejectsNullPolicyAndSizeMismatch) {
  graph::DigraphBuilder b(4);
  EXPECT_THROW(
      Platform(b.build(), std::vector<UserProfile>(4), nullptr),
      std::invalid_argument);
  EXPECT_THROW(Platform(b.build(), std::vector<UserProfile>(3),
                        std::make_unique<VoteCountPolicy>(3)),
               std::invalid_argument);
}

TEST(Platform, NewestSubmissionsOnTopOfQueue) {
  Platform p = make_platform();
  const StoryId a = p.submit(0, 0.5, 0.0);
  const StoryId bid = p.submit(1, 0.5, 1.0);
  EXPECT_EQ(p.upcoming().items(), (std::vector<StoryId>{bid, a}));
}

TEST(Site, StoriesOwnTheirStateIndependently) {
  const Platform p = make_platform(64, 3);
  const Site& site = p.site();
  StoryState a = site.submit(0, 0, 0.5, 0.0);
  StoryState b = site.submit(1, 0, 0.5, 0.0);
  const std::size_t influence = b.visibility.influence();
  EXPECT_FALSE(site.vote(a, 1, 1.0));
  EXPECT_EQ(a.story.vote_count(), 2u);
  EXPECT_EQ(b.story.vote_count(), 1u);
  EXPECT_EQ(b.visibility.influence(), influence);
  EXPECT_TRUE(site.vote(a, 2, 2.0));  // third vote promotes
  EXPECT_EQ(a.story.phase, StoryPhase::kFrontPage);
  EXPECT_EQ(b.story.phase, StoryPhase::kUpcoming);
}

TEST(Site, ExpireIfStaleChecksOnlyTheGivenStory) {
  const Platform p = make_platform();
  const Site& site = p.site();
  StoryState old_story = site.submit(0, 0, 0.5, 0.0);
  StoryState fresh = site.submit(1, 1, 0.5, 1000.0);
  const Minutes now = kMinutesPerDay + 1.0;
  EXPECT_FALSE(site.expire_if_stale(fresh, now));
  EXPECT_TRUE(site.expire_if_stale(old_story, now));
  EXPECT_FALSE(site.expire_if_stale(old_story, now));  // already expired
  EXPECT_EQ(old_story.story.phase, StoryPhase::kExpired);
  EXPECT_EQ(fresh.story.phase, StoryPhase::kUpcoming);
  EXPECT_THROW(site.vote(old_story, 10, now), std::logic_error);
}

TEST(Site, RejectsUnknownUsers) {
  const Platform p = make_platform(64);
  const Site& site = p.site();
  EXPECT_THROW((void)site.submit(0, 64, 0.5, 0.0), std::out_of_range);
  StoryState s = site.submit(0, 0, 0.5, 0.0);
  EXPECT_THROW(site.vote(s, 0xFFFFFFF0u, 1.0), std::out_of_range);
  EXPECT_EQ(s.story.vote_count(), 1u);
}

TEST(Site, RefusedVotesLeaveTheStoryUnchanged) {
  const Platform p = make_platform(64, 10);
  const Site& site = p.site();
  StoryState s = site.submit(0, 0, 0.5, 0.0);
  site.vote(s, 1, 5.0);  // fan of the submitter
  site.vote(s, 20, 6.0);
  const std::vector<UserId> voters = s.story.voters;
  const std::vector<Minutes> times = s.story.times;
  const std::size_t influence = s.visibility.influence();
  const std::vector<UserId> log = s.visibility.exposure_log();
  const double mass = s.vote_mass;
  auto expect_unchanged = [&] {
    EXPECT_EQ(s.story.voters, voters);
    EXPECT_EQ(s.story.times, times);
    EXPECT_EQ(s.story.phase, StoryPhase::kUpcoming);
    EXPECT_EQ(s.visibility.influence(), influence);
    EXPECT_EQ(s.visibility.exposure_log(), log);
    EXPECT_EQ(s.vote_mass, mass);
  };
  EXPECT_THROW(site.vote(s, 1, 7.0), std::invalid_argument);  // duplicate
  expect_unchanged();
  EXPECT_THROW(site.vote(s, 0, 7.0), std::invalid_argument);  // submitter
  expect_unchanged();
  // Out of order, by a watcher whose vote would otherwise change influence.
  ASSERT_TRUE(s.visibility.can_see(2));
  EXPECT_THROW(site.vote(s, 2, 5.5), std::invalid_argument);
  expect_unchanged();
  EXPECT_FALSE(s.visibility.has_voted(2));
  EXPECT_FALSE(site.vote(s, 2, 6.0));  // the same vote, in order
  EXPECT_EQ(s.story.vote_count(), voters.size() + 1);
  StoryState unopened;
  EXPECT_THROW(site.vote(unopened, 1, 0.0), std::logic_error);
}

}  // namespace
}  // namespace digg::platform
