#include "src/core/ablation.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/data/synthetic.h"
#include "tests/test_support.h"

namespace digg::core {
namespace {

constexpr std::uint64_t kSeed = 42;

data::SyntheticParams ablation_params() {
  data::SyntheticParams params;
  params.story_count = 250;
  params.vote_model.step = 2.0;
  return params;
}

// One shared ablation run (three corpus generations).
const MechanismAblationResult& shared_result() {
  static const MechanismAblationResult result =
      mechanism_ablation(ablation_params(), kSeed);
  return result;
}

std::uint64_t digest_of(const data::SyntheticParams& params) {
  stats::Rng rng(kSeed);
  return test::corpus_digest(data::generate_corpus(params, rng).corpus);
}

TEST(MechanismAblation, FullModelShowsPaperPhenomena) {
  const AblationVariant& full = shared_result().full;
  EXPECT_GT(full.front_page, 20u);
  EXPECT_LT(full.spearman_v10_final, -0.3);
  EXPECT_GT(full.mean_v10, 1.0);
  EXPECT_GT(full.median_final_votes, 300.0);
}

TEST(MechanismAblation, NoFanChannelCollapsesPromotion) {
  const AblationVariant& ablated = shared_result().no_fan_channel;
  // Without social browsing the network cannot push stories over the bar:
  // promotions collapse relative to the full model (§1's claim).
  EXPECT_LT(ablated.front_page, shared_result().full.front_page / 3 + 2);
  // Whatever promotes has essentially no in-network votes.
  EXPECT_LT(ablated.mean_v10, 1.0);
}

TEST(MechanismAblation, NoDiscoveryKillsInterestingness) {
  const AblationVariant& ablated = shared_result().no_discovery;
  // Community-only spread: early votes nearly all in-network and nothing
  // reaches the interesting threshold (community saturates first).
  if (ablated.front_page > 0) {
    EXPECT_GT(ablated.mean_v10, 7.0);
    EXPECT_LT(ablated.interesting_fraction, 0.2);
    EXPECT_LT(ablated.median_final_votes,
              shared_result().full.median_final_votes / 2.0);
  }
}

TEST(MechanismAblation, StoryCountsConserved) {
  for (const AblationVariant* v :
       {&shared_result().full, &shared_result().no_fan_channel,
        &shared_result().no_discovery}) {
    EXPECT_EQ(v->front_page + v->upcoming, 250u);
  }
}

TEST(MechanismAblation, VariantNamesSet) {
  EXPECT_EQ(shared_result().full.name, "full model");
  EXPECT_EQ(shared_result().no_fan_channel.name, "no fan channel");
  EXPECT_EQ(shared_result().no_discovery.name, "no discovery");
}

// The two ablated corpora, pinned by digest: switching a channel off must
// make the full model's draws with that channel's rates at zero.
TEST(MechanismAblation, NoFanChannelCorpusRecorded) {
  data::SyntheticParams params = ablation_params();
  params.vote_model.channels =
      dynamics::VoteModelParams::Channels::kNoFanChannel;
  const std::uint64_t digest = digest_of(params);
  EXPECT_EQ(digest, 0xab9ec9e96ae16cb4ull)
      << std::hex << "digest 0x" << digest;
}

TEST(MechanismAblation, NoDiscoveryCorpusRecorded) {
  data::SyntheticParams params = ablation_params();
  params.vote_model.channels =
      dynamics::VoteModelParams::Channels::kNoDiscovery;
  const std::uint64_t digest = digest_of(params);
  EXPECT_EQ(digest, 0xee1e86012b574a8eull)
      << std::hex << "digest 0x" << digest;
}

}  // namespace
}  // namespace digg::core
