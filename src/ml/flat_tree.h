#pragma once
// Batched evaluation for a trained DecisionTree (c45.h). The pointer-chasing
// walk() costs a dependent load through a node object per level per row;
// for the per-vote online hooks (StreamEngine's v10 prediction, fig7's
// scoring loop) that walk is the tree's entire cost. A FlatTree compiles the
// node graph into flat parallel arrays:
//
//   attr[n], thresh[n], left[n], right[n], miss[n], klass[n]
//
// with two normalizations that make a fixed-iteration descent exact:
//   - leaves self-loop: left == right == miss == self and thresh == +inf,
//     so a row that reaches its leaf early just idles there;
//   - every row descends exactly depth() steps, so the loop needs no leaf
//     test.
//
// Missing values (NaN) route to miss[node] — DecisionTree::walk's
// majority-child rule — so batched results are identical to walk() for
// every row, NaN included (tests/ml_c45_test.cpp, FlatTree.*).
//
// Only trees whose internal nodes are all numeric binary splits compile
// (the paper's feature sets are all-numeric); a tree with nominal multiway
// splits yields valid() == false and callers keep the pointer walk.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/ml/c45.h"

namespace digg::ml {

class FlatTree {
 public:
  FlatTree() = default;
  /// Compiles `tree`. valid() is false when the tree has nominal splits
  /// (or is untrained); the FlatTree is then unusable and callers fall
  /// back to DecisionTree::predict.
  explicit FlatTree(const DecisionTree& tree);

  [[nodiscard]] bool valid() const noexcept { return !attr_.empty(); }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return attr_.size();
  }

  /// Predicted class per row. `rows` is n_rows x stride doubles, row-major;
  /// stride must cover every attribute the tree splits on.
  void predict_classes(const double* rows, std::size_t n_rows,
                       std::size_t stride, std::int32_t* out_klass) const;

 private:
  std::vector<std::int32_t> attr_;
  std::vector<double> thresh_;
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  std::vector<std::int32_t> miss_;
  std::vector<std::int32_t> klass_;
  std::size_t depth_ = 0;
};

}  // namespace digg::ml
