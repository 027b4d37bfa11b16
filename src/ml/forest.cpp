#include "src/ml/forest.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/runtime/parallel.h"

namespace digg::ml {

Forest Forest::train(const Dataset& data, const ForestParams& params,
                     stats::Rng& rng) {
  if (data.empty()) throw std::invalid_argument("Forest: empty dataset");
  if (params.tree_count == 0)
    throw std::invalid_argument("Forest: tree_count == 0");
  if (params.bag_fraction <= 0.0 || params.bag_fraction > 1.0)
    throw std::invalid_argument("Forest: bag_fraction outside (0,1]");

  Forest forest;
  forest.class_count_ = data.class_count();
  const auto bag_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(params.bag_fraction *
                                  static_cast<double>(data.size())));
  // Each tree bags from its own index-addressed substream, so trees train
  // concurrently on the parallel runtime and the forest is identical for
  // any thread count (and still deterministic given the caller's seed).
  obs::Span span("ml.forest_train");
  static obs::Counter& trees_trained =
      obs::Registry::global().counter("ml.trees_trained");
  const stats::Rng base = rng.fork();
  forest.trees_ = runtime::parallel_map<DecisionTree>(
      params.tree_count, [&](std::size_t t) {
        trees_trained.inc();
        stats::Rng tree_rng = base.split(t);
        std::vector<std::size_t> bag(bag_size);
        for (std::size_t& idx : bag) {
          idx = static_cast<std::size_t>(tree_rng.uniform_int(
              0, static_cast<std::int64_t>(data.size()) - 1));
        }
        return DecisionTree::train(data.subset(bag), params.tree);
      });
  return forest;
}

std::size_t Forest::predict(const std::vector<double>& row) const {
  const std::vector<double> proba = predict_proba(row);
  return static_cast<std::size_t>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

std::vector<double> Forest::predict_proba(
    const std::vector<double>& row) const {
  if (trees_.empty()) throw std::logic_error("Forest: untrained");
  std::vector<double> acc(class_count_, 0.0);
  for (const DecisionTree& tree : trees_) {
    const std::vector<double> p = tree.predict_proba(row);
    for (std::size_t k = 0; k < class_count_; ++k) acc[k] += p[k];
  }
  for (double& v : acc) v /= static_cast<double>(trees_.size());
  return acc;
}

Trainer forest_trainer(ForestParams params, std::uint64_t seed) {
  return [params, seed](const Dataset& data) -> Classifier {
    stats::Rng rng(seed);
    auto forest = std::make_shared<Forest>(Forest::train(data, params, rng));
    return [forest](const std::vector<double>& row) {
      return forest->predict(row);
    };
  };
}

}  // namespace digg::ml
