#include "src/data/synthetic.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/data/corpus.h"
#include "src/data/scenario.h"
#include "src/data/snapshot.h"
#include "src/dynamics/model.h"
#include "src/runtime/thread_pool.h"
#include "tests/test_support.h"

namespace digg::data {
namespace {

namespace fs = std::filesystem;

bool same_votes(const Story& a, const Story& b) {
  return std::ranges::equal(a.voters(), b.voters()) &&
         std::ranges::equal(a.times(), b.times());
}

// A small corpus keeps the suite fast; the promotion bar is scaled down
// with the world (fan waves shrink with the network) and bounds are loose.
SyntheticParams small_params() {
  SyntheticParams p;
  p.user_count = 4000;
  p.story_count = 150;
  p.top_submitter_pool = 50;
  p.promotion_threshold = 12;
  p.promotion_rate_votes = 5;
  p.vote_model.horizon = 2.0 * platform::kMinutesPerDay;
  p.vote_model.step = 2.0;
  return p;
}

TEST(GenerateCorpus, ProducesValidCorpus) {
  stats::Rng rng(1);
  const SyntheticCorpus syn = generate_corpus(small_params(), rng);
  EXPECT_NO_THROW(validate(syn.corpus));
  EXPECT_EQ(syn.corpus.story_count(), 150u);
  EXPECT_EQ(syn.corpus.user_count(), 4000u);
  EXPECT_EQ(syn.traits.size(), 150u);
  EXPECT_EQ(syn.seed, 1u);
}

TEST(GenerateCorpus, BothSectionsPopulated) {
  stats::Rng rng(2);
  const SyntheticCorpus syn = generate_corpus(small_params(), rng);
  EXPECT_GT(syn.corpus.front_page.size(), 10u);
  EXPECT_GT(syn.corpus.upcoming.size(), 10u);
}

TEST(GenerateCorpus, DeterministicForSeed) {
  stats::Rng rng1(7);
  stats::Rng rng2(7);
  const SyntheticCorpus a = generate_corpus(small_params(), rng1);
  const SyntheticCorpus b = generate_corpus(small_params(), rng2);
  ASSERT_EQ(a.corpus.front_page.size(), b.corpus.front_page.size());
  for (std::size_t i = 0; i < a.corpus.front_page.size(); ++i) {
    EXPECT_TRUE(same_votes(a.corpus.front_page[i], b.corpus.front_page[i]));
  }
  EXPECT_EQ(a.corpus.top_users, b.corpus.top_users);
}

TEST(GenerateCorpus, DifferentSeedsDiffer) {
  stats::Rng rng1(7);
  stats::Rng rng2(8);
  const SyntheticCorpus a = generate_corpus(small_params(), rng1);
  const SyntheticCorpus b = generate_corpus(small_params(), rng2);
  bool any_difference =
      a.corpus.front_page.size() != b.corpus.front_page.size();
  if (!any_difference && !a.corpus.front_page.empty()) {
    any_difference = !same_votes(a.corpus.front_page[0], b.corpus.front_page[0]);
  }
  EXPECT_TRUE(any_difference);
}

TEST(GenerateCorpus, PromotedStoriesHaveAtLeastThresholdVotes) {
  stats::Rng rng(3);
  const SyntheticParams params = small_params();
  const SyntheticCorpus syn = generate_corpus(params, rng);
  for (const Story& s : syn.corpus.front_page)
    EXPECT_GE(s.vote_count(), params.promotion_threshold);
}

TEST(GenerateCorpus, PromotionsHappenWithinUpcomingLifetime) {
  stats::Rng rng(4);
  const SyntheticCorpus syn = generate_corpus(small_params(), rng);
  for (const Story& s : syn.corpus.front_page) {
    ASSERT_TRUE(s.promoted());
    EXPECT_LE(*s.promoted_at - s.submitted_at, platform::kMinutesPerDay + 1.0);
  }
}

TEST(GenerateCorpus, FrontPageSkewedTowardInteresting) {
  stats::Rng rng(5);
  const SyntheticCorpus syn = generate_corpus(small_params(), rng);
  // Promoted stories accumulate far more votes than stranded ones.
  double fp_mean = 0.0;
  for (const Story& s : syn.corpus.front_page)
    fp_mean += static_cast<double>(s.vote_count());
  fp_mean /= static_cast<double>(syn.corpus.front_page.size());
  double up_mean = 0.0;
  for (const Story& s : syn.corpus.upcoming)
    up_mean += static_cast<double>(s.vote_count());
  up_mean /= static_cast<double>(syn.corpus.upcoming.size());
  EXPECT_GT(fp_mean, 5.0 * up_mean);
}

TEST(GenerateCorpus, TopUsersRankedByPromotions) {
  stats::Rng rng(6);
  const SyntheticCorpus syn = generate_corpus(small_params(), rng);
  std::vector<std::size_t> promoted(syn.corpus.user_count(), 0);
  for (const Story& s : syn.corpus.front_page) ++promoted[s.submitter];
  const auto& top = syn.corpus.top_users;
  ASSERT_EQ(top.size(), syn.corpus.user_count());
  for (std::size_t r = 0; r + 1 < 50; ++r)
    EXPECT_GE(promoted[top[r]], promoted[top[r + 1]]);
}

TEST(GenerateCorpus, TraitsWithinUnitInterval) {
  stats::Rng rng(7);
  const SyntheticCorpus syn = generate_corpus(small_params(), rng);
  for (const auto& t : syn.traits) {
    EXPECT_GE(t.general, 0.0);
    EXPECT_LE(t.general, 1.0);
    EXPECT_GE(t.community, 0.0);
    EXPECT_LE(t.community, 1.0);
  }
}

TEST(GenerateCorpus, RejectsBadParameters) {
  stats::Rng rng(1);
  SyntheticParams p = small_params();
  p.story_count = 0;
  EXPECT_THROW(generate_corpus(p, rng), std::invalid_argument);
  p = small_params();
  p.top_submitter_pool = 0;
  EXPECT_THROW(generate_corpus(p, rng), std::invalid_argument);
  p = small_params();
  p.top_submitter_pool = p.user_count + 1;
  EXPECT_THROW(generate_corpus(p, rng), std::invalid_argument);
}

TEST(GenerateCorpus, UserCountOverridesNestedNetworkParams) {
  stats::Rng rng(8);
  SyntheticParams p = small_params();
  p.user_count = 3000;  // network.node_count still carries 120000
  const SyntheticCorpus syn = generate_corpus(p, rng);
  EXPECT_EQ(syn.corpus.user_count(), 3000u);
}

TEST(GenerateCorpusToSnapshot, MatchesEagerGenerationBitForBit) {
  // The streamed generator promises identical RNG consumption: the same
  // params and seed must yield the same stories, votes, phases, and
  // top-user ranking as the in-memory path, modulo file order (streamed
  // files hold submission order; the loader re-partitions by phase).
  const SyntheticParams params = small_params();
  stats::Rng rng_eager(11);
  const SyntheticCorpus eager = generate_corpus(params, rng_eager);

  const fs::path path =
      fs::temp_directory_path() /
      ("digg_streamed_gen_" + std::to_string(::getpid()) + ".snap");
  stats::Rng rng_stream(11);
  const StreamedCorpusInfo info = generate_corpus_to_snapshot(
      params, rng_stream, path, /*chunk_target_bytes=*/std::size_t{1} << 16);

  EXPECT_EQ(info.seed, 11u);
  EXPECT_EQ(info.story_count, eager.corpus.story_count());
  EXPECT_EQ(info.front_page_count, eager.corpus.front_page.size());
  EXPECT_EQ(info.upcoming_count, eager.corpus.upcoming.size());
  EXPECT_EQ(info.total_votes, eager.corpus.vote_store.total_votes());

  const Corpus loaded = load_snapshot_mmap(path);
  fs::remove(path);
  EXPECT_EQ(loaded.user_count(), eager.corpus.user_count());
  EXPECT_EQ(loaded.network.edge_count(), eager.corpus.network.edge_count());
  EXPECT_EQ(loaded.top_users, eager.corpus.top_users);

  std::map<StoryId, const Story*> by_id;
  for (const Story& s : eager.corpus.front_page) by_id[s.id] = &s;
  for (const Story& s : eager.corpus.upcoming) by_id[s.id] = &s;
  ASSERT_EQ(by_id.size(), info.story_count);
  ASSERT_EQ(loaded.front_page.size(), eager.corpus.front_page.size());
  const auto check = [&](const Story& got) {
    const auto it = by_id.find(got.id);
    ASSERT_NE(it, by_id.end()) << "unknown story id " << got.id;
    const Story& want = *it->second;
    EXPECT_EQ(got.submitter, want.submitter);
    EXPECT_EQ(got.submitted_at, want.submitted_at);
    EXPECT_EQ(got.quality, want.quality);
    EXPECT_EQ(got.phase, want.phase);
    ASSERT_EQ(got.promoted(), want.promoted());
    if (want.promoted()) {
      EXPECT_EQ(*got.promoted_at, *want.promoted_at);
    }
    // Bitwise vote identity — the RNG-consumption contract.
    EXPECT_TRUE(std::ranges::equal(got.voters(), want.voters()));
    EXPECT_TRUE(std::ranges::equal(got.times(), want.times()));
  };
  for (const Story& s : loaded.front_page) {
    EXPECT_TRUE(s.promoted());
    check(s);
  }
  for (const Story& s : loaded.upcoming) {
    EXPECT_FALSE(s.promoted());
    check(s);
  }
}

TEST(GenerateCorpusToSnapshot, RejectsBadParameters) {
  const fs::path path =
      fs::temp_directory_path() /
      ("digg_streamed_bad_" + std::to_string(::getpid()) + ".snap");
  stats::Rng rng(1);
  SyntheticParams p = small_params();
  p.story_count = 0;
  EXPECT_THROW((void)generate_corpus_to_snapshot(p, rng, path),
               std::invalid_argument);
  fs::remove(path);
}

// Calibration against the measured Digg marginals: the paper's §3 and the
// Zhu statistics (arXiv:0909.2706) both report power-law fan counts with a
// heavy concentration of links and activity in the best-connected users.
// The generator's preferential attachment (smoothing a, mean out-degree m)
// targets a tail exponent around 2 + a/m ≈ 2.6; this test pins the
// generated marginals to those shapes with deliberately loose bands.
TEST(GenerateCorpus, CalibratedAgainstZhuMarginals) {
  SyntheticParams p = small_params();
  p.user_count = 20000;  // larger sample stabilises the tail estimate
  p.story_count = 300;
  stats::Rng rng(42);
  const SyntheticCorpus syn = generate_corpus(p, rng);
  const graph::Digraph& net = syn.corpus.network;

  // Fan counts, largest first.
  std::vector<double> fans(p.user_count);
  for (std::size_t u = 0; u < p.user_count; ++u)
    fans[u] = static_cast<double>(net.fan_count(u));
  std::sort(fans.begin(), fans.end(), std::greater<>());

  // Hill estimator of the tail exponent over the top 2% of users:
  // alpha = 1 + k / sum(log(x_i / x_k)). Power law check, not a fit of
  // convenience: for an exponential tail the estimate drifts well above 4.
  const std::size_t k = p.user_count / 50;
  ASSERT_GT(fans[k], 0.0);
  double log_sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) log_sum += std::log(fans[i] / fans[k]);
  const double alpha = 1.0 + static_cast<double>(k) / log_sum;
  EXPECT_GT(alpha, 1.6) << "fan-count tail too heavy for Digg";
  EXPECT_LT(alpha, 3.8) << "fan-count tail too light (not a power law?)";

  // Link concentration: the best-connected decile holds most fan links
  // (the paper's top users; uniform attachment would put it near 10%).
  const double total_fans = std::accumulate(fans.begin(), fans.end(), 0.0);
  const double top_decile = std::accumulate(
      fans.begin(), fans.begin() + static_cast<std::ptrdiff_t>(p.user_count / 10),
      0.0);
  EXPECT_GT(top_decile / total_fans, 0.45);

  // Voting activity per user is heavy-tailed too (Zhu's user-activity
  // marginal): the busiest voter decile casts far more than its share.
  std::vector<double> votes_by_user(p.user_count, 0.0);
  double total_votes = 0.0;
  const auto tally = [&](const Story& s) {
    for (const UserId v : s.voters()) {
      votes_by_user[v] += 1.0;
      total_votes += 1.0;
    }
  };
  for (const Story& s : syn.corpus.front_page) tally(s);
  for (const Story& s : syn.corpus.upcoming) tally(s);
  ASSERT_GT(total_votes, 0.0);
  std::sort(votes_by_user.begin(), votes_by_user.end(), std::greater<>());
  const double top_votes = std::accumulate(
      votes_by_user.begin(),
      votes_by_user.begin() + static_cast<std::ptrdiff_t>(p.user_count / 10),
      0.0);
  EXPECT_GT(top_votes / total_votes, 0.35);

  // Story popularity spread (Fig. 2a's wide vote-count range): the most
  // voted story dwarfs the median one.
  std::vector<double> story_votes;
  for (const Story& s : syn.corpus.front_page)
    story_votes.push_back(static_cast<double>(s.vote_count()));
  for (const Story& s : syn.corpus.upcoming)
    story_votes.push_back(static_cast<double>(s.vote_count()));
  std::sort(story_votes.begin(), story_votes.end());
  EXPECT_GT(story_votes.back(),
            8.0 * story_votes[story_votes.size() / 2]);
}

// --- pluggable models ----------------------------------------------------

// The eager/streamed bit-identity contract must hold for BOTH models, not
// just the one the goldens pin — a model that draws outside its
// split(story_id) substream would break here first.
TEST(GenerateCorpusToSnapshot, BitIdenticalUnderEveryRegisteredModel) {
  for (const std::string_view model_id : dynamics::kModelIds) {
    SCOPED_TRACE("model " + std::string(model_id));
    SyntheticParams params = small_params();
    params.model_id = model_id;
    params.stochastic.step = 4.0;  // keep the expensive model's runs fast
    params.stochastic.horizon = 2.0 * platform::kMinutesPerDay;

    stats::Rng rng_eager(11);
    const SyntheticCorpus eager = generate_corpus(params, rng_eager);
    EXPECT_EQ(eager.corpus.model_id, model_id);

    const fs::path path =
        fs::temp_directory_path() /
        ("digg_streamed_model_" + std::to_string(::getpid()) + ".snap");
    stats::Rng rng_stream(11);
    const StreamedCorpusInfo info = generate_corpus_to_snapshot(
        params, rng_stream, path,
        /*chunk_target_bytes=*/std::size_t{1} << 16);
    EXPECT_EQ(info.total_votes, eager.corpus.vote_store.total_votes());

    const Corpus loaded = load_snapshot_mmap(path);
    fs::remove(path);
    EXPECT_EQ(loaded.model_id, model_id);

    std::map<StoryId, const Story*> by_id;
    for (const Story& s : eager.corpus.front_page) by_id[s.id] = &s;
    for (const Story& s : eager.corpus.upcoming) by_id[s.id] = &s;
    const auto check = [&](const Story& got) {
      const auto it = by_id.find(got.id);
      ASSERT_NE(it, by_id.end()) << "unknown story id " << got.id;
      EXPECT_TRUE(same_votes(got, *it->second)) << "story " << got.id;
    };
    for (const Story& s : loaded.front_page) check(s);
    for (const Story& s : loaded.upcoming) check(s);
  }
}

TEST(GenerateCorpus, UnknownModelIdThrows) {
  SyntheticParams p = small_params();
  p.model_id = "no-such-model";
  stats::Rng rng(1);
  EXPECT_THROW((void)generate_corpus(p, rng), std::invalid_argument);
}

// --- scenario presets ----------------------------------------------------

TEST(Scenarios, EveryNamedScenarioGeneratesAValidCorpus) {
  const std::vector<std::string> names = scenario_names();
  ASSERT_GE(names.size(), 5u);  // legacy + stochastic + 3 variants
  std::set<std::string> models;
  for (const std::string& name : names) {
    SCOPED_TRACE("scenario " + name);
    ScenarioSpec spec = make_scenario(name, 7);
    EXPECT_EQ(spec.name, name);
    EXPECT_EQ(spec.seed, 7u);
    downscale(spec, 3000, 60);
    models.insert(spec.model_id());
    stats::Rng rng(spec.seed);
    const SyntheticCorpus syn = generate_corpus(spec.params, rng);
    EXPECT_NO_THROW(validate(syn.corpus));
    EXPECT_EQ(syn.corpus.model_id, spec.model_id());
    EXPECT_EQ(syn.corpus.story_count(), 60u);
  }
  // The preset matrix must exercise both models.
  for (const std::string_view id : dynamics::kModelIds)
    EXPECT_TRUE(models.count(std::string(id))) << id;
}

TEST(Scenarios, VariantsActuallyDiverge) {
  // Same seed, different scenario params → different corpora. Guards
  // against a preset silently collapsing into the default.
  auto gen = [](const char* name) {
    ScenarioSpec spec = make_scenario(name, 7);
    downscale(spec, 3000, 60);
    stats::Rng rng(spec.seed);
    return generate_corpus(spec.params, rng);
  };
  const SyntheticCorpus stoch = gen("stochastic");
  const SyntheticCorpus diversity = gen("stochastic-diversity");
  const SyntheticCorpus flat = gen("stochastic-flat");
  const SyntheticCorpus casual = gen("stochastic-casual");
  const auto votes = [](const SyntheticCorpus& c) {
    return c.corpus.vote_store.total_votes();
  };
  // Promotion-rule and activity-mix changes shift total votes; the flat
  // network at least changes the graph.
  EXPECT_NE(votes(stoch), votes(casual));
  EXPECT_NE(stoch.corpus.network.edge_count(),
            flat.corpus.network.edge_count());
  EXPECT_TRUE(votes(stoch) != votes(diversity) ||
              stoch.corpus.front_page.size() !=
                  diversity.corpus.front_page.size());
}

TEST(Scenarios, UnknownNameThrowsListingKnownNames) {
  try {
    (void)make_scenario("not-a-scenario", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("not-a-scenario"), std::string::npos) << what;
    EXPECT_NE(what.find("legacy"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Golden corpora. Each digest covers every story's submitter, submission
// time, quality, phase, promotion time and vote columns, plus the top-user
// ranking, and was recorded from the serial story-at-a-time generator.
// Parallel per-story generation must reproduce them bit for bit, eager and
// streamed, at any thread count.

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct GoldenCase {
  const char* label;
  const char* scenario;
  bool full_size;
  platform::Minutes horizon;  // 0 keeps the scenario's horizon
  std::uint64_t digest;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.label; }

ScenarioSpec golden_spec(const GoldenCase& c) {
  ScenarioSpec spec = make_scenario(c.scenario, 42);
  if (!c.full_size) downscale(spec, 3000, 80);
  if (c.horizon > 0.0) {
    spec.params.vote_model.horizon = c.horizon;
    spec.params.stochastic.horizon = c.horizon;
  }
  return spec;
}

class GoldenCorpus : public ::testing::TestWithParam<GoldenCase> {
 protected:
  void TearDown() override { runtime::set_default_threads(0); }
};

TEST_P(GoldenCorpus, EagerAndStreamedMatchAtOneAndFourThreads) {
  const GoldenCase& c = GetParam();
  const ScenarioSpec spec = golden_spec(c);
  std::string snapshot_bytes[2];
  const unsigned thread_counts[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    const unsigned threads = thread_counts[k];
    SCOPED_TRACE("threads " + std::to_string(threads));
    runtime::set_default_threads(threads);

    stats::Rng eager_rng(spec.seed);
    const SyntheticCorpus eager = generate_corpus(spec.params, eager_rng);
    EXPECT_EQ(test::corpus_digest(eager.corpus), c.digest)
        << std::hex << "eager digest 0x" << test::corpus_digest(eager.corpus);

    const fs::path path =
        fs::temp_directory_path() /
        ("digg_golden_" + std::string(c.label) + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(threads) +
         ".snap");
    stats::Rng stream_rng(spec.seed);
    (void)generate_corpus_to_snapshot(spec.params, stream_rng, path);
    {
      const Corpus loaded = load_snapshot_mmap(path);
      EXPECT_EQ(test::corpus_digest(loaded), c.digest)
          << std::hex << "streamed digest 0x" << test::corpus_digest(loaded);
    }
    snapshot_bytes[k] = file_bytes(path);
    fs::remove(path);
  }
  EXPECT_FALSE(snapshot_bytes[0].empty());
  EXPECT_TRUE(snapshot_bytes[0] == snapshot_bytes[1])
      << "streamed snapshot bytes differ between 1 and 4 threads";
}

// 12 hours is below the 1-day upcoming lifetime: those stories end their
// run still upcoming instead of expiring.
constexpr platform::Minutes kShortHorizon = 12.0 * 60.0;

TEST(GoldenCases, ShortHorizonStoriesEndUpcoming) {
  // Below the upcoming lifetime no story expires: unpromoted stories end
  // their run still upcoming, so the short-horizon digests pin that path.
  const ScenarioSpec spec =
      golden_spec({"short", "legacy", false, kShortHorizon, 0});
  stats::Rng rng(spec.seed);
  const SyntheticCorpus syn = generate_corpus(spec.params, rng);
  ASSERT_FALSE(syn.corpus.upcoming.empty());
  for (const Story& s : syn.corpus.upcoming)
    EXPECT_EQ(s.phase, platform::StoryPhase::kUpcoming) << s.id;
}

const GoldenCase kGoldenCases[] = {
    {"legacy_full", "legacy", true, 0.0, 0x7506efaabbb103fdull},
    {"legacy", "legacy", false, 0.0, 0x2f6020434160cb0bull},
    {"stochastic", "stochastic", false, 0.0, 0xe0a9c987469f8325ull},
    {"stochastic_diversity", "stochastic-diversity", false, 0.0,
     0xfe106a41cce9b49eull},
    {"stochastic_flat", "stochastic-flat", false, 0.0, 0xc9db514e4904b249ull},
    {"stochastic_casual", "stochastic-casual", false, 0.0,
     0x9851bf9da5a1d8a4ull},
    {"legacy_short_horizon", "legacy", false, kShortHorizon,
     0xb22c3bf246bbc015ull},
    {"stochastic_short_horizon", "stochastic", false, kShortHorizon,
     0x39872ac90e54a2a8ull},
};

TEST(GoldenCases, CoversEveryNamedScenario) {
  std::set<std::string> covered;
  for (const GoldenCase& c : kGoldenCases) covered.insert(c.scenario);
  for (const std::string& name : scenario_names())
    EXPECT_TRUE(covered.count(name)) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, GoldenCorpus, ::testing::ValuesIn(kGoldenCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace digg::data
