#include "src/core/predictor.h"

#include <algorithm>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/obs/recorder.h"

namespace digg::core {

namespace {

std::vector<std::string> attributes_for(FeatureSet features) {
  if (features == FeatureSet::kExtended)
    return {"v6", "v10", "v20", "fans1", "influence10"};
  return {"v10", "fans1"};
}

}  // namespace

std::vector<double> InterestingnessPredictor::encode(const StoryFeatures& f,
                                                     FeatureSet features) {
  std::vector<double> row;
  if (features == FeatureSet::kExtended)
    row.push_back(static_cast<double>(f.v6));
  row.push_back(static_cast<double>(f.v10));
  if (features == FeatureSet::kExtended)
    row.push_back(static_cast<double>(f.v20));
  row.push_back(static_cast<double>(f.fans1));
  if (features == FeatureSet::kExtended)
    row.push_back(static_cast<double>(f.influence10));
  return row;
}

ml::Dataset InterestingnessPredictor::make_dataset(
    const std::vector<StoryFeatures>& sample, FeatureSet features) {
  ml::Dataset data(attributes_for(features), {"no", "yes"});
  for (const StoryFeatures& f : sample) {
    data.add(encode(f, features), f.interesting ? 1 : 0);
  }
  return data;
}

InterestingnessPredictor InterestingnessPredictor::train(
    const std::vector<StoryFeatures>& sample, FeatureSet features,
    ml::C45Params params) {
  if (sample.empty())
    throw std::invalid_argument("InterestingnessPredictor: empty sample");
  obs::Span span("core.predictor_train");
  InterestingnessPredictor p;
  p.features_ = features;
  p.tree_ = ml::DecisionTree::train(make_dataset(sample, features), params);
  return p;
}

bool InterestingnessPredictor::predict(const StoryFeatures& f) const {
  static obs::Counter& scored =
      obs::Registry::global().counter("core.predictions_scored");
  scored.inc();
  return tree_.predict(encode(f, features_)) == 1;
}

double InterestingnessPredictor::predict_proba(const StoryFeatures& f) const {
  return tree_.predict_proba(encode(f, features_))[1];
}

ml::CrossValidationResult cross_validate_predictor(
    const std::vector<StoryFeatures>& sample, FeatureSet features,
    std::size_t folds, stats::Rng& rng, ml::C45Params params) {
  const ml::Dataset data =
      InterestingnessPredictor::make_dataset(sample, features);
  // Stratified CV needs every class in every fold; on small samples clamp
  // the fold count to the rarest class size (but never below 2).
  std::size_t min_class = data.size();
  for (std::size_t count : data.class_histogram()) {
    if (count > 0) min_class = std::min(min_class, count);
  }
  const std::size_t usable_folds =
      std::max<std::size_t>(2, std::min(folds, min_class));
  const ml::Trainer trainer = [params](const ml::Dataset& train) {
    const ml::DecisionTree tree = ml::DecisionTree::train(train, params);
    return ml::Classifier([tree](const std::vector<double>& row) {
      return tree.predict(row);
    });
  };
  return ml::cross_validate(trainer, data, usable_folds, rng,
                            /*positive_class=*/1);
}

}  // namespace digg::core
