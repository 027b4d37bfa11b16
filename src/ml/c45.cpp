#include "src/ml/c45.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace digg::ml {

double entropy(const std::vector<double>& counts) {
  double total = 0.0;
  for (double c : counts) total += c;
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double c : counts) {
    if (c > 0.0) {
      const double p = c / total;
      h -= p * std::log2(p);
    }
  }
  return h;
}

namespace {

/// Inverse standard-normal CDF (Acklam's rational approximation, |ε|<1.2e-9).
double normal_quantile(double p) {
  if (p <= 0.0 || p >= 1.0)
    throw std::invalid_argument("normal_quantile: p outside (0,1)");
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double q, r;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - p_low) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

/// C4.5's pessimistic error count: the upper CF confidence bound on the true
/// error probability given E errors in N instances, times N. Wilson score
/// interval upper bound (what J48 effectively computes).
double pessimistic_errors(double errors, double n, double cf) {
  if (n <= 0.0) return 0.0;
  const double z = normal_quantile(1.0 - cf);
  const double f = errors / n;
  const double z2 = z * z;
  const double upper =
      (f + z2 / (2.0 * n) +
       z * std::sqrt(f / n - f * f / n + z2 / (4.0 * n * n))) /
      (1.0 + z2 / n);
  return upper * n;
}

struct SplitCandidate {
  bool valid = false;
  std::size_t attribute = 0;
  double threshold = 0.0;
  double gain = 0.0;
  double gain_ratio = 0.0;
};

}  // namespace

/// Recursive trainer; friend of DecisionTree.
class C45Builder {
 public:
  C45Builder(const Dataset& data, const C45Params& params)
      : data_(data), params_(params) {}

  DecisionTree build() {
    DecisionTree tree;
    tree.attributes_ = data_.attributes();
    tree.class_names_ = {data_.class_names().begin(),
                         data_.class_names().end()};
    std::vector<std::size_t> all(data_.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    build_node(tree, all);
    if (params_.prune) prune(tree, 0);
    compact(tree);
    return tree;
  }

 private:
  const Dataset& data_;
  const C45Params& params_;

  std::vector<double> class_counts(const std::vector<std::size_t>& idx) const {
    std::vector<double> counts(data_.class_count(), 0.0);
    for (std::size_t i : idx) counts[data_.label(i)] += 1.0;
    return counts;
  }

  static std::size_t argmax(const std::vector<double>& v) {
    return static_cast<std::size_t>(
        std::max_element(v.begin(), v.end()) - v.begin());
  }

  SplitCandidate best_numeric_split(const std::vector<std::size_t>& idx,
                                    std::size_t attr, double base_entropy,
                                    double n_known_total) const {
    SplitCandidate best;
    best.attribute = attr;
    std::vector<std::size_t> known;
    for (std::size_t i : idx)
      if (!is_missing(data_.value(i, attr))) known.push_back(i);
    if (known.size() < 2 * params_.min_instances) return best;
    std::sort(known.begin(), known.end(), [&](std::size_t a, std::size_t b) {
      return data_.value(a, attr) < data_.value(b, attr);
    });

    std::vector<double> left(data_.class_count(), 0.0);
    std::vector<double> right = class_counts(known);
    const double n = static_cast<double>(known.size());
    std::size_t candidate_splits = 0;
    double best_gain = -1.0;
    double best_threshold = 0.0;
    double best_left_n = 0.0;
    for (std::size_t k = 0; k + 1 < known.size(); ++k) {
      const std::size_t label = data_.label(known[k]);
      left[label] += 1.0;
      right[label] -= 1.0;
      const double v = data_.value(known[k], attr);
      const double v_next = data_.value(known[k + 1], attr);
      if (v == v_next) continue;
      ++candidate_splits;
      const double n_left = static_cast<double>(k + 1);
      const double n_right = n - n_left;
      if (n_left < static_cast<double>(params_.min_instances) ||
          n_right < static_cast<double>(params_.min_instances))
        continue;
      const double cond =
          n_left / n * entropy(left) + n_right / n * entropy(right);
      const double gain = base_entropy - cond;
      if (gain > best_gain) {
        best_gain = gain;
        best_threshold = (v + v_next) / 2.0;
        best_left_n = n_left;
      }
    }
    if (best_gain <= 0.0 || candidate_splits == 0) return best;
    // Quinlan's MDL correction for numeric attributes: the gain must pay for
    // choosing among the candidate thresholds.
    const double corrected_gain =
        best_gain -
        std::log2(static_cast<double>(candidate_splits)) / n_known_total;
    if (corrected_gain <= 0.0) return best;
    const std::vector<double> sizes = {best_left_n, n - best_left_n};
    const double split_info = entropy(sizes);
    if (split_info <= 0.0) return best;
    best.valid = true;
    best.threshold = best_threshold;
    best.gain = corrected_gain;
    best.gain_ratio = corrected_gain / split_info;
    return best;
  }

  std::size_t make_leaf(DecisionTree& tree,
                        const std::vector<double>& counts) {
    DecisionTree::Node node;
    node.leaf = true;
    node.class_counts = counts;
    node.klass = argmax(counts);
    node.n_total = std::accumulate(counts.begin(), counts.end(), 0.0);
    node.n_wrong = node.n_total - counts[node.klass];
    tree.nodes_.push_back(std::move(node));
    return tree.nodes_.size() - 1;
  }

  std::size_t build_node(DecisionTree& tree,
                         const std::vector<std::size_t>& idx) {
    const std::vector<double> counts = class_counts(idx);
    const double n = std::accumulate(counts.begin(), counts.end(), 0.0);
    const double base = entropy(counts);
    if (idx.size() < 2 * params_.min_instances || base == 0.0)
      return make_leaf(tree, counts);

    // Collect admissible splits and apply Quinlan's average-gain filter.
    std::vector<SplitCandidate> candidates;
    for (std::size_t a = 0; a < data_.attribute_count(); ++a) {
      const SplitCandidate c = best_numeric_split(idx, a, base, n);
      if (c.valid) candidates.push_back(c);
    }
    if (candidates.empty()) return make_leaf(tree, counts);
    double gain_sum = 0.0;
    for (const SplitCandidate& c : candidates) gain_sum += c.gain;
    const double avg_gain =
        gain_sum / static_cast<double>(candidates.size()) - 1e-9;
    const SplitCandidate* best = nullptr;
    for (const SplitCandidate& c : candidates) {
      if (c.gain < avg_gain) continue;
      if (!best || c.gain_ratio > best->gain_ratio) best = &c;
    }
    if (!best) return make_leaf(tree, counts);

    // Partition instances; missing values go to every branch? C4.5 uses
    // fractional weights — we simplify by sending them to the majority
    // branch, which J48's -B behaviour approximates.
    std::vector<std::vector<std::size_t>> parts(2);
    for (std::size_t i : idx) {
      const double v = data_.value(i, best->attribute);
      if (is_missing(v)) continue;
      parts[v <= best->threshold ? 0 : 1].push_back(i);
    }
    const std::size_t majority_part =
        parts[1].size() > parts[0].size() ? 1 : 0;
    for (std::size_t i : idx) {
      if (is_missing(data_.value(i, best->attribute)))
        parts[majority_part].push_back(i);
    }

    DecisionTree::Node node;
    node.leaf = false;
    node.class_counts = counts;
    node.klass = argmax(counts);
    node.n_total = n;
    node.n_wrong = n - counts[node.klass];
    node.attribute = best->attribute;
    node.threshold = best->threshold;
    tree.nodes_.push_back(node);
    const std::size_t self = tree.nodes_.size() - 1;
    std::vector<std::size_t> children;
    children.reserve(parts.size());
    for (const auto& part : parts) {
      if (part.empty()) {
        // Empty branch predicts the parent's majority class.
        children.push_back(make_leaf(tree, counts));
        tree.nodes_.back().n_total = 0.0;
        tree.nodes_.back().n_wrong = 0.0;
      } else {
        children.push_back(build_node(tree, part));
      }
    }
    tree.nodes_[self].children = std::move(children);
    tree.nodes_[self].majority_child = majority_part;
    return self;
  }

  /// Post-order subtree-replacement pruning; returns the pessimistic error
  /// estimate of the (possibly pruned) subtree.
  double prune(DecisionTree& tree, std::size_t node_idx) {
    DecisionTree::Node& node = tree.nodes_[node_idx];
    const double leaf_errors = pessimistic_errors(
        node.n_wrong, node.n_total, params_.confidence_factor);
    if (node.leaf) return leaf_errors;
    double subtree_errors = 0.0;
    for (std::size_t c : node.children) subtree_errors += prune(tree, c);
    if (leaf_errors <= subtree_errors + 0.1) {
      node.leaf = true;
      node.children.clear();
      return leaf_errors;
    }
    return subtree_errors;
  }

  /// Drops orphaned nodes left behind by pruning and renumbers the rest.
  static void compact(DecisionTree& tree) {
    std::vector<std::size_t> remap(tree.nodes_.size(),
                                   std::numeric_limits<std::size_t>::max());
    std::vector<DecisionTree::Node> kept;
    std::vector<std::size_t> stack{0};
    // First pass: discover reachable nodes in DFS preorder.
    std::vector<std::size_t> order;
    while (!stack.empty()) {
      const std::size_t n = stack.back();
      stack.pop_back();
      if (remap[n] != std::numeric_limits<std::size_t>::max()) continue;
      remap[n] = order.size();
      order.push_back(n);
      const auto& children = tree.nodes_[n].children;
      for (auto it = children.rbegin(); it != children.rend(); ++it)
        stack.push_back(*it);
    }
    kept.reserve(order.size());
    for (std::size_t old_idx : order) {
      DecisionTree::Node node = tree.nodes_[old_idx];
      for (std::size_t& c : node.children) c = remap[c];
      kept.push_back(std::move(node));
    }
    tree.nodes_ = std::move(kept);
  }
};

DecisionTree DecisionTree::train(const Dataset& data, const C45Params& params) {
  if (data.empty()) throw std::invalid_argument("DecisionTree: empty dataset");
  if (params.min_instances == 0)
    throw std::invalid_argument("DecisionTree: min_instances == 0");
  if (params.confidence_factor <= 0.0 || params.confidence_factor >= 1.0)
    throw std::invalid_argument("DecisionTree: confidence_factor outside (0,1)");
  return C45Builder(data, params).build();
}

std::size_t DecisionTree::walk(const std::vector<double>& row) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: untrained");
  std::size_t cur = 0;
  while (!nodes_[cur].leaf) {
    const Node& n = nodes_[cur];
    if (n.attribute >= row.size())
      throw std::invalid_argument("DecisionTree::predict: row too short");
    const double v = row[n.attribute];
    const std::size_t branch =
        is_missing(v) ? n.majority_child : (v <= n.threshold ? 0 : 1);
    cur = n.children[branch];
  }
  return cur;
}

std::size_t DecisionTree::predict(const std::vector<double>& row) const {
  return nodes_[walk(row)].klass;
}

std::vector<double> DecisionTree::predict_proba(
    const std::vector<double>& row) const {
  const Node& leaf = nodes_[walk(row)];
  std::vector<double> proba(leaf.class_counts.size());
  double total = 0.0;
  for (double c : leaf.class_counts) total += c + 1.0;  // Laplace
  for (std::size_t k = 0; k < proba.size(); ++k)
    proba[k] = (leaf.class_counts[k] + 1.0) / total;
  return proba;
}

std::size_t DecisionTree::depth_of(std::size_t node) const {
  const Node& n = nodes_[node];
  if (n.leaf) return 0;
  std::size_t d = 0;
  for (std::size_t c : n.children) d = std::max(d, depth_of(c));
  return d + 1;
}

std::size_t DecisionTree::depth() const {
  return nodes_.empty() ? 0 : depth_of(0);
}

void DecisionTree::render_node(std::size_t node_idx, std::size_t indent,
                               std::string& out) const {
  const Node& n = nodes_[node_idx];
  const std::string pad = [&] {
    std::string p;
    for (std::size_t i = 0; i < indent; ++i) p += "|  ";
    return p;
  }();
  auto leaf_suffix = [&](const Node& leaf) {
    std::string s = ": " + class_names_[leaf.klass] + " (";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.0f", leaf.n_total);
    s += buf;
    if (leaf.n_wrong > 0.0) {
      std::snprintf(buf, sizeof buf, "/%.0f", leaf.n_wrong);
      s += buf;
    }
    s += ")";
    return s;
  };
  if (n.leaf) {
    out += pad + leaf_suffix(n) + "\n";
    return;
  }
  for (std::size_t b = 0; b < n.children.size(); ++b) {
    char condition[64];
    std::snprintf(condition, sizeof condition, "%s %s %g",
                  attributes_[n.attribute].c_str(), b == 0 ? "<=" : ">",
                  n.threshold);
    const Node& child = nodes_[n.children[b]];
    if (child.leaf) {
      out += pad + condition + leaf_suffix(child) + "\n";
    } else {
      out += pad + condition + "\n";
      render_node(n.children[b], indent + 1, out);
    }
  }
}

std::string DecisionTree::render() const {
  if (nodes_.empty()) return "(untrained)\n";
  std::string out;
  render_node(0, 0, out);
  return out;
}

}  // namespace digg::ml
