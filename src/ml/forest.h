#pragma once
// Bagged C4.5 ensemble (a random forest without per-split feature
// subsampling — with two attributes, bagging is the only useful source of
// diversity). Extension beyond the paper: does averaging many trees improve
// the early-vote predictor? The fig5 ablation bench reports the comparison.

#include <cstddef>
#include <vector>

#include "src/ml/c45.h"
#include "src/ml/validation.h"
#include "src/stats/rng.h"

namespace digg::ml {

struct ForestParams {
  std::size_t tree_count = 25;
  /// Fraction of the training set drawn (with replacement) per tree.
  double bag_fraction = 1.0;
  C45Params tree;  // per-tree C4.5 settings
};

class Forest {
 public:
  /// Trains `tree_count` trees on bootstrap resamples. Throws on an empty
  /// dataset or zero trees.
  static Forest train(const Dataset& data, const ForestParams& params,
                      stats::Rng& rng);

  /// Majority vote over the trees.
  [[nodiscard]] std::size_t predict(const std::vector<double>& row) const;
  /// Mean of the trees' class-probability estimates.
  [[nodiscard]] std::vector<double> predict_proba(
      const std::vector<double>& row) const;

  [[nodiscard]] std::size_t size() const noexcept { return trees_.size(); }

 private:
  std::vector<DecisionTree> trees_;
  std::size_t class_count_ = 0;
};

/// Trainer adapter for cross_validate.
[[nodiscard]] Trainer forest_trainer(ForestParams params, std::uint64_t seed);

}  // namespace digg::ml
