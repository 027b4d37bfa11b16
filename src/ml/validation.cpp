#include "src/ml/validation.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/runtime/parallel.h"

namespace digg::ml {

double Confusion::accuracy() const {
  return total() == 0 ? 0.0
                      : static_cast<double>(correct()) /
                            static_cast<double>(total());
}

double Confusion::precision() const {
  const std::size_t denom = tp + fp;
  return denom == 0 ? 0.0
                    : static_cast<double>(tp) / static_cast<double>(denom);
}

double Confusion::recall() const {
  const std::size_t denom = tp + fn;
  return denom == 0 ? 0.0
                    : static_cast<double>(tp) / static_cast<double>(denom);
}

double Confusion::f1() const {
  const double p = precision();
  const double r = recall();
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

void Confusion::add(bool actual_positive, bool predicted_positive) {
  if (actual_positive) {
    predicted_positive ? ++tp : ++fn;
  } else {
    predicted_positive ? ++fp : ++tn;
  }
}

std::string Confusion::to_string() const {
  std::ostringstream os;
  os << "TP=" << tp << " TN=" << tn << " FP=" << fp << " FN=" << fn;
  return os.str();
}

Confusion evaluate(const Classifier& model, const Dataset& data,
                   std::size_t positive_class) {
  if (data.class_count() != 2)
    throw std::invalid_argument("evaluate: binary classes required");
  if (positive_class >= 2)
    throw std::invalid_argument("evaluate: bad positive class");
  Confusion c;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const bool actual = data.label(i) == positive_class;
    const bool predicted = model(data.row(i)) == positive_class;
    c.add(actual, predicted);
  }
  return c;
}

std::vector<std::size_t> stratified_folds(const Dataset& data,
                                          std::size_t folds,
                                          stats::Rng& rng) {
  if (folds < 2) throw std::invalid_argument("stratified_folds: folds < 2");
  std::vector<std::size_t> assignment(data.size(), 0);
  for (std::size_t klass = 0; klass < data.class_count(); ++klass) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < data.size(); ++i)
      if (data.label(i) == klass) members.push_back(i);
    if (!members.empty() && members.size() < folds)
      throw std::invalid_argument(
          "stratified_folds: a class has fewer members than folds");
    std::shuffle(members.begin(), members.end(), rng.engine());
    for (std::size_t j = 0; j < members.size(); ++j)
      assignment[members[j]] = j % folds;
  }
  return assignment;
}

CrossValidationResult cross_validate(const Trainer& trainer,
                                     const Dataset& data, std::size_t folds,
                                     stats::Rng& rng,
                                     std::size_t positive_class) {
  obs::Span cv_span("ml.cross_validate");
  static obs::Counter& folds_run =
      obs::Registry::global().counter("ml.cv_folds");
  static obs::Histogram& fold_us =
      obs::Registry::global().histogram("ml.cv_fold_us");
  const std::vector<std::size_t> assignment =
      stratified_folds(data, folds, rng);
  // Folds train and evaluate independently on the parallel runtime; results
  // land by fold index and the pooled matrix sums in fold order, so the
  // outcome is identical for any thread count. Per-fold timing is recorded
  // and never read back, so it cannot perturb the result.
  CrossValidationResult result;
  result.per_fold = runtime::parallel_map<Confusion>(
      folds, [&](std::size_t fold) {
        obs::Span fold_span("ml.cv_fold", fold, &fold_us);
        std::vector<std::size_t> train_idx;
        std::vector<std::size_t> test_idx;
        for (std::size_t i = 0; i < data.size(); ++i) {
          (assignment[i] == fold ? test_idx : train_idx).push_back(i);
        }
        if (train_idx.empty() || test_idx.empty())
          throw std::logic_error("cross_validate: empty fold");
        const Dataset train = data.subset(train_idx);
        const Dataset test = data.subset(test_idx);
        const Classifier model = trainer(train);
        const Confusion c = evaluate(model, test, positive_class);
        folds_run.inc();
        return c;
      });
  for (const Confusion& fold_result : result.per_fold) {
    result.pooled.tp += fold_result.tp;
    result.pooled.tn += fold_result.tn;
    result.pooled.fp += fold_result.fp;
    result.pooled.fn += fold_result.fn;
  }
  return result;
}

}  // namespace digg::ml
