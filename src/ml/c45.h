#pragma once
// C4.5 decision tree (Quinlan 1993), the learner behind Weka's J48 which the
// paper uses (§5.2, Fig. 5). Every attribute is numeric (dataset.h), so
// every internal node is a binary threshold split. Implemented features:
//   - gain-ratio split selection over binary thresholds, with Quinlan's MDL
//     threshold correction and average-gain admissibility rule;
//   - minimum-instances-per-leaf stopping (J48's -M, default 2);
//   - pessimistic (confidence-factor) subtree-replacement pruning, J48's
//     default CF = 0.25;
//   - missing values routed to the majority child at prediction time and
//     skipped during split evaluation;
//   - tree rendering in the style of the paper's Fig. 5:
//       v10 <= 4: yes (130/5)
// The tree is a value type: nodes are stored in a vector, children by index.

#include <cstddef>
#include <string>
#include <vector>

#include "src/ml/dataset.h"

namespace digg::ml {

struct C45Params {
  std::size_t min_instances = 2;  // minimum instances in at least 2 branches
  double confidence_factor = 0.25;
  bool prune = true;
};

class DecisionTree {
 public:
  /// Trains on the dataset. Throws if the dataset is empty.
  static DecisionTree train(const Dataset& data, const C45Params& params = {});

  /// Predicted class index for a row of attribute values.
  [[nodiscard]] std::size_t predict(const std::vector<double>& row) const;

  /// Class probability estimate (Laplace-smoothed leaf frequencies).
  [[nodiscard]] std::vector<double> predict_proba(
      const std::vector<double>& row) const;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t depth() const;

  /// Fig. 5-style rendering, e.g.:
  ///   v10 <= 4
  ///   |  fans1 <= 85: yes (130/5)
  [[nodiscard]] std::string render() const;

 private:
  struct Node {
    bool leaf = true;
    std::size_t klass = 0;          // leaf: predicted class
    double n_total = 0.0;           // training instances reaching this node
    double n_wrong = 0.0;           // of those, misclassified by `klass`
    std::vector<double> class_counts;

    std::size_t attribute = 0;      // internal: split attribute
    double threshold = 0.0;         // <= goes left
    std::vector<std::size_t> children;  // internal: [left, right]
    std::size_t majority_child = 0;     // where missing values route
  };

  std::vector<Node> nodes_;  // nodes_[0] is the root
  std::vector<std::string> attributes_;  // attribute names
  std::vector<std::string> class_names_;

  [[nodiscard]] std::size_t walk(const std::vector<double>& row) const;
  [[nodiscard]] std::size_t depth_of(std::size_t node) const;
  void render_node(std::size_t node, std::size_t indent,
                   std::string& out) const;

  friend class C45Builder;
  friend class FlatTree;  // flat_tree.h: batched branch-free evaluation
};

/// Shannon entropy (bits) of a class-count vector; 0 for empty counts.
[[nodiscard]] double entropy(const std::vector<double>& counts);

}  // namespace digg::ml
