#include "src/data/corpus.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/data/snapshot.h"
#include "src/digg/story.h"
#include "tests/test_support.h"

namespace digg::data {
namespace {

using test::add_vote;
using platform::make_story;

Corpus tiny_corpus() {
  Corpus c;
  graph::DigraphBuilder b(10);
  b.add_fan(0, 1);
  c.network = b.build();

  platform::Story fp = make_story(0, 0, 0.0, 0.5);
  add_vote(fp, 1, 1.0);
  add_vote(fp, 2, 2.0);
  fp.promoted_at = 2.0;
  fp.phase = platform::StoryPhase::kFrontPage;
  c.add_story(fp, Corpus::Section::kFrontPage);

  platform::Story up = make_story(1, 3, 5.0, 0.2);
  add_vote(up, 4, 6.0);
  c.add_story(up, Corpus::Section::kUpcoming);

  c.top_users = {0, 3, 1};
  return c;
}

// Vote columns are immutable through the corpus views, so the negative
// validate() cases append a story whose columns were built raw (bypassing
// add_vote's invariant checks).
void add_bad_story(Corpus& c, void (*corrupt)(platform::Story&)) {
  platform::Story bad = make_story(2, 5, 0.0, 0.5);
  corrupt(bad);
  c.add_story(bad, Corpus::Section::kUpcoming);
}

TEST(Corpus, CountsAndRanks) {
  const Corpus c = tiny_corpus();
  EXPECT_EQ(c.user_count(), 10u);
  EXPECT_EQ(c.story_count(), 2u);
  EXPECT_EQ(c.rank_of(0), 0u);
  EXPECT_EQ(c.rank_of(1), 2u);
  EXPECT_EQ(c.rank_of(9), Corpus::npos);
  EXPECT_TRUE(c.is_top_user(0, 1));
  EXPECT_FALSE(c.is_top_user(3, 1));
  EXPECT_TRUE(c.is_top_user(3, 2));
  EXPECT_FALSE(c.is_top_user(9, 100));
}

TEST(Corpus, ValidatePassesOnGoodCorpus) {
  EXPECT_NO_THROW(validate(tiny_corpus()));
}

TEST(Corpus, ValidateCatchesMissingPromotion) {
  Corpus c = tiny_corpus();
  c.front_page[0].promoted_at.reset();
  EXPECT_THROW(validate(c), std::runtime_error);
}

TEST(Corpus, ValidateCatchesPromotedUpcoming) {
  Corpus c = tiny_corpus();
  c.upcoming[0].promoted_at = 10.0;
  EXPECT_THROW(validate(c), std::runtime_error);
}

TEST(Corpus, ValidateCatchesSubmitterNotFirst) {
  Corpus c = tiny_corpus();
  add_bad_story(c, [](platform::Story& s) { s.voters[0] = 7; });
  EXPECT_THROW(validate(c), std::runtime_error);
}

TEST(Corpus, ValidateCatchesDuplicateVoter) {
  Corpus c = tiny_corpus();
  add_bad_story(c, [](platform::Story& s) {
    s.voters.insert(s.voters.end(), {6, 6});
    s.times.insert(s.times.end(), {1.0, 2.0});
  });
  EXPECT_THROW(validate(c), std::runtime_error);
}

TEST(Corpus, ValidateCatchesOutOfOrderVotes) {
  Corpus c = tiny_corpus();
  add_bad_story(c, [](platform::Story& s) {
    s.voters.insert(s.voters.end(), {6, 7});
    s.times.insert(s.times.end(), {2.0, 1.0});
  });
  EXPECT_THROW(validate(c), std::runtime_error);
}

TEST(Corpus, ValidateCatchesVoterOutsideNetwork) {
  Corpus c = tiny_corpus();
  add_bad_story(c, [](platform::Story& s) {
    s.voters.push_back(99);
    s.times.push_back(1.0);
  });
  EXPECT_THROW(validate(c), std::runtime_error);
}

TEST(Corpus, ValidateCatchesEmptyVotes) {
  Corpus c = tiny_corpus();
  add_bad_story(c, [](platform::Story& s) {
    s.voters.clear();
    s.times.clear();
  });
  EXPECT_THROW(validate(c), std::runtime_error);
}

TEST(Corpus, ValidateCatchesDuplicateStoryId) {
  Corpus c = tiny_corpus();
  // Id 0 is the front-page story's; the reuse sits in the other section.
  c.add_story(make_story(0, 5, 7.0, 0.5), Corpus::Section::kUpcoming);
  try {
    validate(c);
    FAIL() << "duplicate story id accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate story id 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(Corpus, ValidateCatchesBadTopUser) {
  Corpus c = tiny_corpus();
  c.top_users.push_back(99);
  EXPECT_THROW(validate(c), std::runtime_error);
}

// A corpus owns its vote arena, and a mapped corpus borrows the snapshot's
// bytes: neither may be copied, only moved.
TEST(Corpus, IsMoveOnly) {
  static_assert(!std::is_copy_constructible_v<Corpus>);
  static_assert(!std::is_copy_assignable_v<Corpus>);
  static_assert(std::is_nothrow_move_constructible_v<Corpus>);
  static_assert(std::is_nothrow_move_assignable_v<Corpus>);
  static_assert(!std::is_copy_constructible_v<VoteStore>);
  static_assert(!std::is_copy_assignable_v<VoteStore>);
  static_assert(std::is_nothrow_move_constructible_v<VoteStore>);
  static_assert(std::is_nothrow_move_assignable_v<VoteStore>);
  SUCCEED();
}

/// Every story's vote columns, read through its views, plus the top users.
struct VoteRecord {
  std::vector<std::vector<UserId>> voters;
  std::vector<std::vector<platform::Minutes>> times;
  std::vector<UserId> top_users;
  bool operator==(const VoteRecord&) const = default;
};

VoteRecord record_of(const Corpus& c) {
  VoteRecord r;
  for (const auto* section : {&c.front_page, &c.upcoming}) {
    for (const Story& s : *section) {
      r.voters.emplace_back(s.voters().begin(), s.voters().end());
      r.times.emplace_back(s.times().begin(), s.times().end());
    }
  }
  r.top_users = c.top_users;
  return r;
}

// Moving a corpus, by construction and by assignment, keeps every view
// readable after the source is gone: in-memory arenas move their heap
// buffers, and a mapped corpus moves its backing.
void expect_moves_keep_votes(Corpus source) {
  const VoteRecord before = record_of(source);
  ASSERT_FALSE(before.voters.empty());
  Corpus assigned;
  {
    Corpus constructed(std::move(source));
    EXPECT_EQ(record_of(constructed), before);
    assigned = std::move(constructed);
  }
  EXPECT_EQ(record_of(assigned), before);
  EXPECT_NO_THROW(validate(assigned));
}

TEST(Corpus, MovedCorpusReadsTheSameVotes) {
  expect_moves_keep_votes(tiny_corpus());

  const auto path = std::filesystem::temp_directory_path() /
                    ("digg_corpus_test_" + std::to_string(::getpid()) +
                     ".snap");
  save_snapshot(tiny_corpus(), path);
  Corpus mapped = load_snapshot_mmap(path);
  std::filesystem::remove(path);  // the mapping outlives the file name
  ASSERT_NE(mapped.backing, nullptr);
  expect_moves_keep_votes(std::move(mapped));
}

TEST(UserActivity, CountsFrontPageOnly) {
  const Corpus c = tiny_corpus();
  const UserActivity act = user_activity(c);
  EXPECT_EQ(act.submissions[0], 1u);
  EXPECT_EQ(act.submissions[3], 0u);  // upcoming submissions excluded
  EXPECT_EQ(act.votes[0], 1u);        // submitter digg counts as a vote
  EXPECT_EQ(act.votes[1], 1u);
  EXPECT_EQ(act.votes[4], 0u);        // only voted on an upcoming story
}

TEST(FinalVotes, ExtractsCounts) {
  const Corpus c = tiny_corpus();
  const std::vector<double> votes = final_votes(c.front_page);
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_DOUBLE_EQ(votes[0], 3.0);
}

}  // namespace
}  // namespace digg::data
