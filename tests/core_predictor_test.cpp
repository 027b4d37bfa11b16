#include "src/core/predictor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace digg::core {
namespace {

// Synthetic feature sample embodying the paper's signal: high v10 with small
// fan base -> uninteresting; low v10 -> interesting.
std::vector<StoryFeatures> paper_like_sample(std::size_t n = 120) {
  std::vector<StoryFeatures> sample;
  stats::Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    StoryFeatures f;
    f.story = static_cast<platform::StoryId>(i);
    const bool interesting = i % 2 == 0;
    f.interesting = interesting;
    f.final_votes = interesting ? 1500 : 200;
    f.v10 = interesting ? static_cast<std::size_t>(rng.uniform_int(0, 4))
                        : static_cast<std::size_t>(rng.uniform_int(6, 10));
    f.v6 = f.v10 / 2;
    f.v20 = f.v10 * 2;
    f.fans1 = interesting ? static_cast<std::size_t>(rng.uniform_int(0, 50))
                          : static_cast<std::size_t>(rng.uniform_int(50, 400));
    f.influence10 = f.fans1 * 2;
    sample.push_back(f);
  }
  return sample;
}

TEST(Encode, PaperFeatureSetIsV10Fans1) {
  StoryFeatures f;
  f.v6 = 1;
  f.v10 = 2;
  f.v20 = 3;
  f.fans1 = 4;
  f.influence10 = 5;
  const auto row = InterestingnessPredictor::encode(f, FeatureSet::kPaper);
  EXPECT_EQ(row, (std::vector<double>{2.0, 4.0}));
}

TEST(Encode, ExtendedFeatureSetHasFiveAttributes) {
  StoryFeatures f;
  f.v6 = 1;
  f.v10 = 2;
  f.v20 = 3;
  f.fans1 = 4;
  f.influence10 = 5;
  const auto row = InterestingnessPredictor::encode(f, FeatureSet::kExtended);
  EXPECT_EQ(row, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(MakeDataset, SchemaMatchesFeatureSet) {
  const auto sample = paper_like_sample(10);
  const ml::Dataset paper =
      InterestingnessPredictor::make_dataset(sample, FeatureSet::kPaper);
  EXPECT_EQ(paper.attribute_count(), 2u);
  EXPECT_EQ(paper.attributes(), (std::vector<std::string>{"v10", "fans1"}));
  EXPECT_EQ(paper.class_names()[1], "yes");
  EXPECT_EQ(paper.size(), 10u);

  const ml::Dataset ext =
      InterestingnessPredictor::make_dataset(sample, FeatureSet::kExtended);
  EXPECT_EQ(ext.attribute_count(), 5u);
}

TEST(Predictor, LearnsPaperSignal) {
  const auto sample = paper_like_sample();
  const InterestingnessPredictor p = InterestingnessPredictor::train(sample);
  StoryFeatures low_v10;
  low_v10.v10 = 1;
  low_v10.fans1 = 20;
  EXPECT_TRUE(p.predict(low_v10));
  StoryFeatures high_v10;
  high_v10.v10 = 9;
  high_v10.fans1 = 200;
  EXPECT_FALSE(p.predict(high_v10));
  EXPECT_GT(p.predict_proba(low_v10), p.predict_proba(high_v10));
}

TEST(Predictor, TreeUsesV10) {
  const auto sample = paper_like_sample();
  const InterestingnessPredictor p = InterestingnessPredictor::train(sample);
  EXPECT_NE(p.tree().render().find("v10"), std::string::npos);
  EXPECT_EQ(p.feature_set(), FeatureSet::kPaper);
}

TEST(Predictor, ThrowsOnEmptySample) {
  EXPECT_THROW(InterestingnessPredictor::train({}), std::invalid_argument);
}

TEST(CrossValidatePredictor, HighAccuracyOnCleanSignal) {
  const auto sample = paper_like_sample();
  stats::Rng rng(7);
  const ml::CrossValidationResult cv =
      cross_validate_predictor(sample, FeatureSet::kPaper, 10, rng);
  EXPECT_EQ(cv.pooled.total(), sample.size());
  EXPECT_GT(cv.pooled.accuracy(), 0.9);
}

TEST(CrossValidatePredictor, ExtendedFeaturesAlsoWork) {
  const auto sample = paper_like_sample();
  stats::Rng rng(9);
  const ml::CrossValidationResult cv =
      cross_validate_predictor(sample, FeatureSet::kExtended, 5, rng);
  EXPECT_GT(cv.pooled.accuracy(), 0.85);
}

}  // namespace
}  // namespace digg::core
