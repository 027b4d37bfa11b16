#pragma once
// The end-to-end interestingness predictor of §5.2: a C4.5 tree over early-
// vote features. The paper's attribute set is {v10, fans1}; the extended set
// adds v6, v20 and influence10 for the ablation bench.

#include <memory>
#include <string>
#include <vector>

#include "src/core/features.h"
#include "src/ml/c45.h"
#include "src/ml/validation.h"

namespace digg::core {

enum class FeatureSet {
  kPaper,     // v10, fans1  (Fig. 5)
  kExtended,  // v6, v10, v20, fans1, influence10
};

class InterestingnessPredictor {
 public:
  /// Trains on a feature sample. The class labels are "no"/"yes"
  /// (uninteresting/interesting), with "yes" as the positive class.
  static InterestingnessPredictor train(
      const std::vector<StoryFeatures>& sample,
      FeatureSet features = FeatureSet::kPaper, ml::C45Params params = {});

  [[nodiscard]] bool predict(const StoryFeatures& f) const;
  [[nodiscard]] double predict_proba(const StoryFeatures& f) const;

  /// The trained tree (Fig. 5 shape).
  [[nodiscard]] const ml::DecisionTree& tree() const noexcept { return tree_; }
  [[nodiscard]] FeatureSet feature_set() const noexcept { return features_; }

  /// Builds the ml::Dataset for a sample (exposed so cross-validation and
  /// baselines reuse the exact same encoding).
  [[nodiscard]] static ml::Dataset make_dataset(
      const std::vector<StoryFeatures>& sample, FeatureSet features);

  /// Row encoding for one story, matching make_dataset's attribute order.
  [[nodiscard]] static std::vector<double> encode(const StoryFeatures& f,
                                                  FeatureSet features);

 private:
  ml::DecisionTree tree_;
  FeatureSet features_ = FeatureSet::kPaper;
};

/// 10-fold cross-validation of the paper's classifier on a sample
/// (the "correctly classifies 174 of the examples" number).
[[nodiscard]] ml::CrossValidationResult cross_validate_predictor(
    const std::vector<StoryFeatures>& sample, FeatureSet features,
    std::size_t folds, stats::Rng& rng, ml::C45Params params = {});

}  // namespace digg::core
