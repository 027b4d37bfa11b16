#pragma once
// Batched evaluation for a trained DecisionTree (c45.h). The pointer-chasing
// walk() costs a dependent load through a node object per level per row.
// No library path scores enough rows at once to need more: the stream
// engine calls the tree once per story, at vote 10. FlatTree stays for
// perfbench's `ml.flat_tree_ns_per_row` gauge and goes with the next
// change to that benchmark. It compiles the node graph into flat parallel
// arrays:
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
// every row, NaN included (tests/ml_c45_test.cpp, FlatTree.*). Every
// internal node is a binary threshold split (c45.h), so every trained tree
// compiles.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/ml/c45.h"

namespace digg::ml {

class FlatTree {
 public:
  FlatTree() = default;
  /// Compiles `tree`.
  explicit FlatTree(const DecisionTree& tree);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return attr_.size();
  }

  /// Predicted class per row. `rows` is n_rows x stride doubles, row-major;
  /// stride must cover every attribute the tree splits on. Throws
  /// std::logic_error when the tree was untrained (as DecisionTree::predict
  /// does).
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
