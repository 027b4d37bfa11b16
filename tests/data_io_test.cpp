#include "src/data/io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/data/snapshot.h"
#include "src/data/synthetic.h"
#include "src/digg/story.h"
#include "tests/test_support.h"

namespace digg::data {
namespace {

namespace fs = std::filesystem;

void expect_same_votes(const Story& a, const Story& b) {
  ASSERT_EQ(a.vote_count(), b.vote_count());
  EXPECT_TRUE(std::ranges::equal(a.voters(), b.voters()));
  EXPECT_TRUE(std::ranges::equal(a.times(), b.times()));
}

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("digg_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

Corpus small_corpus(std::uint64_t seed = 1) {
  stats::Rng rng(seed);
  SyntheticParams p;
  p.user_count = 1500;
  p.story_count = 40;
  p.vote_model.horizon = platform::kMinutesPerDay;
  p.vote_model.step = 2.0;
  return generate_corpus(p, rng).corpus;
}

TEST_F(IoTest, RoundTripPreservesEverything) {
  const Corpus original = small_corpus();
  save_corpus(original, dir_);
  const Corpus loaded = load_corpus(dir_);

  EXPECT_EQ(loaded.user_count(), original.user_count());
  EXPECT_EQ(loaded.network.edge_count(), original.network.edge_count());
  ASSERT_EQ(loaded.front_page.size(), original.front_page.size());
  ASSERT_EQ(loaded.upcoming.size(), original.upcoming.size());
  EXPECT_EQ(loaded.top_users, original.top_users);

  for (std::size_t i = 0; i < original.front_page.size(); ++i) {
    const Story& a = original.front_page[i];
    const Story& b = loaded.front_page[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.submitter, b.submitter);
    expect_same_votes(a, b);
    EXPECT_DOUBLE_EQ(*a.promoted_at, *b.promoted_at);
    EXPECT_NEAR(a.quality, b.quality, 1e-5);
  }
  for (std::size_t i = 0; i < original.upcoming.size(); ++i) {
    expect_same_votes(original.upcoming[i], loaded.upcoming[i]);
    EXPECT_FALSE(loaded.upcoming[i].promoted());
  }

  // Network structure preserved exactly.
  for (graph::NodeId u = 0; u < original.network.node_count(); ++u) {
    const auto fa = original.network.friends(u);
    const auto fb = loaded.network.friends(u);
    ASSERT_EQ(fa.size(), fb.size());
    EXPECT_TRUE(std::equal(fa.begin(), fa.end(), fb.begin()));
  }
}

TEST_F(IoTest, CreatesExpectedFiles) {
  save_corpus(small_corpus(), dir_);
  EXPECT_TRUE(fs::exists(dir_ / "network.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "stories.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "votes.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "top_users.csv"));
}

TEST_F(IoTest, MissingDirectoryThrows) {
  EXPECT_THROW(load_corpus(dir_ / "nonexistent"), std::runtime_error);
}

TEST_F(IoTest, BadHeaderThrows) {
  save_corpus(small_corpus(), dir_);
  std::ofstream(dir_ / "network.csv") << "bogus,header\n0,1\n";
  EXPECT_THROW(load_corpus(dir_), std::runtime_error);
}

TEST_F(IoTest, MalformedRowThrows) {
  save_corpus(small_corpus(), dir_);
  std::ofstream(dir_ / "votes.csv") << "story_id,user,time\nnot_a_number,1,2\n";
  EXPECT_THROW(load_corpus(dir_), std::runtime_error);
}

TEST_F(IoTest, VoteForUnknownStoryThrows) {
  for (const std::string id : {"999999", "4294967295"}) {
    save_corpus(small_corpus(), dir_);
    std::ofstream out(dir_ / "votes.csv", std::ios::app);
    out << id << ",1,2\n";
    out.close();
    EXPECT_THROW(load_corpus(dir_), std::runtime_error) << id;
  }
}

TEST_F(IoTest, DuplicateStoryIdThrows) {
  for (const std::string id : {"7", "4294967295"}) {
    save_corpus(small_corpus(), dir_);
    std::ofstream out(dir_ / "stories.csv", std::ios::app);
    out << id << ",upcoming,0,0,,0.5\n" << id << ",upcoming,0,0,,0.5\n";
    out.close();
    try {
      (void)load_corpus(dir_);
      ADD_FAILURE() << "duplicate id " << id << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate story id " + id),
                std::string::npos)
          << e.what();
    }
  }
}

// Story ids are any 32-bit values: the extremes must survive the CSV round
// trip (the loader keys stories by id rather than sizing a table by the
// largest id) and a snapshot round trip.
TEST_F(IoTest, ExtremeStoryIdsRoundTripThroughCsvAndSnapshot) {
  const std::vector<StoryId> ids = {0, 4294967294u, 4294967295u};
  graph::DigraphBuilder builder(3);
  builder.add_follow(0, 1);
  builder.add_follow(2, 0);
  Corpus original;
  original.network = builder.build();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto submitter = static_cast<UserId>(i);
    platform::Story s = platform::make_story(ids[i], submitter, 10.0, 0.5);
    test::add_vote(s, (submitter + 1) % 3, 11.5);
    original.add_story(s, Corpus::Section::kUpcoming);
  }
  save_corpus(original, dir_);
  const Corpus from_csv = load_corpus(dir_);
  save_snapshot(from_csv, dir_ / "corpus.snap");
  auto expect_ids = [&](const Corpus& loaded) {
    ASSERT_EQ(loaded.upcoming.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(loaded.upcoming[i].id, ids[i]);
      EXPECT_EQ(loaded.upcoming[i].submitter, original.upcoming[i].submitter);
      expect_same_votes(loaded.upcoming[i], original.upcoming[i]);
    }
  };
  expect_ids(from_csv);
  expect_ids(load_snapshot_mmap(dir_ / "corpus.snap"));
}

// std::stod reads `nan` and `inf`; the loader must refuse them, as the live
// serve path does, instead of letting a NaN slip past the vote-order check.
TEST_F(IoTest, NonFiniteTimesThrow) {
  struct Row {
    const char* story;
    const char* vote_times[3];
    const char* error;
  };
  const Row rows[] = {
      {"5,upcoming,0,0,,0.5", {"0", "nan", "2"},
       "upcoming story 5: non-finite vote time"},
      {"5,upcoming,0,inf,,0.5", {"0", "1", "2"},
       "upcoming story 5: non-finite submission time"},
      {"5,front_page,0,0,nan,0.5", {"0", "1", "2"},
       "front-page story 5: non-finite promotion time"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.error);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    std::ofstream(dir_ / "network.csv") << "fan,target\n1,0\n2,0\n";
    std::ofstream(dir_ / "stories.csv")
        << "id,section,submitter,submitted_at,promoted_at,quality\n"
        << row.story << '\n';
    std::ofstream votes(dir_ / "votes.csv");
    votes << "story_id,user,time\n";
    for (int user = 0; user < 3; ++user)
      votes << "5," << user << ',' << row.vote_times[user] << '\n';
    votes.close();
    std::ofstream(dir_ / "top_users.csv") << "user\n0\n";
    try {
      (void)load_corpus(dir_);
      ADD_FAILURE() << "non-finite time accepted";
    } catch (const std::runtime_error& e) {
      // Content errors name the corpus directory, as snapshot errors name
      // their file.
      EXPECT_NE(std::string(e.what()).find(dir_.string() + ": " + row.error),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(IoTest, SectionMismatchThrows) {
  save_corpus(small_corpus(), dir_);
  // front_page story without promoted_at.
  std::ofstream(dir_ / "stories.csv")
      << "id,section,submitter,submitted_at,promoted_at,quality\n"
      << "0,front_page,0,0,,0.5\n";
  EXPECT_THROW(load_corpus(dir_), std::runtime_error);
}

TEST_F(IoTest, LoadedCorpusValidates) {
  save_corpus(small_corpus(2), dir_);
  // load_corpus runs validate() internally; reaching here means it passed.
  EXPECT_NO_THROW(load_corpus(dir_));
}

}  // namespace
}  // namespace digg::data
