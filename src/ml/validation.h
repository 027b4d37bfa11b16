#pragma once
// Model evaluation: confusion matrices in the paper's TP/TN/FP/FN notation
// (§5.2, footnote 4) and stratified k-fold cross-validation matching the
// "results of 10-fold validation" quoted for Fig. 5.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/ml/dataset.h"
#include "src/stats/rng.h"

namespace digg::ml {

/// Binary confusion counts. By convention class index `positive` (default 1)
/// is the positive class ("interesting").
struct Confusion {
  std::size_t tp = 0;
  std::size_t tn = 0;
  std::size_t fp = 0;
  std::size_t fn = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return tp + tn + fp + fn;
  }
  [[nodiscard]] std::size_t correct() const noexcept { return tp + tn; }
  [[nodiscard]] std::size_t errors() const noexcept { return fp + fn; }
  [[nodiscard]] double accuracy() const;
  /// P = TP / (TP + FP); the paper's headline comparison metric.
  [[nodiscard]] double precision() const;
  [[nodiscard]] double recall() const;
  [[nodiscard]] double f1() const;

  void add(bool actual_positive, bool predicted_positive);
  [[nodiscard]] std::string to_string() const;
};

/// A trained model under test: maps an attribute row to a class index.
using Classifier = std::function<std::size_t(const std::vector<double>&)>;

/// Evaluates a classifier on a dataset (binary classes only).
[[nodiscard]] Confusion evaluate(const Classifier& model, const Dataset& data,
                                 std::size_t positive_class = 1);

/// A model factory trains on a fold's training split. Cross-validation runs
/// folds concurrently on the parallel runtime, so the trainer must be
/// thread-safe: train from its arguments (plus captured immutable state or a
/// captured seed) without mutating shared state.
using Trainer = std::function<Classifier(const Dataset&)>;

struct CrossValidationResult {
  Confusion pooled;                 // summed over folds
  std::vector<Confusion> per_fold;  // one entry per fold
};

/// Stratified k-fold CV: folds preserve class proportions; assignment is
/// shuffled by `rng`. Throws if folds < 2 or any class has < folds members.
[[nodiscard]] CrossValidationResult cross_validate(
    const Trainer& trainer, const Dataset& data, std::size_t folds,
    stats::Rng& rng, std::size_t positive_class = 1);

/// Stratified fold assignment (fold index per instance), exposed for tests.
[[nodiscard]] std::vector<std::size_t> stratified_folds(const Dataset& data,
                                                        std::size_t folds,
                                                        stats::Rng& rng);

}  // namespace digg::ml
