#include "src/ml/flat_tree.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace digg::ml {

FlatTree::FlatTree(const DecisionTree& tree) {
  const auto& nodes = tree.nodes_;
  const std::size_t count = nodes.size();
  attr_.resize(count);
  thresh_.resize(count);
  left_.resize(count);
  right_.resize(count);
  miss_.resize(count);
  klass_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& n = nodes[i];
    const auto self = static_cast<std::int32_t>(i);
    klass_[i] = static_cast<std::int32_t>(n.klass);
    if (n.leaf) {
      // Self-loop with an always-true compare: a settled row idles here
      // for the remaining descent steps.
      attr_[i] = 0;
      thresh_[i] = std::numeric_limits<double>::infinity();
      left_[i] = right_[i] = miss_[i] = self;
    } else {
      attr_[i] = static_cast<std::int32_t>(n.attribute);
      thresh_[i] = n.threshold;
      left_[i] = static_cast<std::int32_t>(n.children[0]);
      right_[i] = static_cast<std::int32_t>(n.children[1]);
      miss_[i] = static_cast<std::int32_t>(n.children[n.majority_child]);
    }
  }
  depth_ = tree.depth();
}

void FlatTree::predict_classes(const double* rows, std::size_t n_rows,
                               std::size_t stride,
                               std::int32_t* out_klass) const {
  if (n_rows > 0 && klass_.empty())
    throw std::logic_error("FlatTree: untrained");
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* row = rows + r * stride;
    std::int32_t cur = 0;
    // Exactly depth_ steps: leaves self-loop, so early arrivals idle in
    // place and the loop carries no leaf test.
    for (std::size_t d = 0; d < depth_; ++d) {
      const double v = row[attr_[cur]];
      cur = std::isnan(v) ? miss_[cur]
                          : (v <= thresh_[cur] ? left_[cur] : right_[cur]);
    }
    out_klass[r] = klass_[cur];
  }
}

}  // namespace digg::ml
