#include "src/ml/baseline.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/ml/c45.h"

namespace digg::ml {

MajorityClassifier MajorityClassifier::train(const Dataset& data) {
  if (data.empty())
    throw std::invalid_argument("MajorityClassifier: empty dataset");
  MajorityClassifier m;
  m.klass_ = data.majority_class();
  return m;
}

std::size_t MajorityClassifier::predict(
    const std::vector<double>& /*row*/) const {
  return klass_;
}

DecisionStump DecisionStump::train(const Dataset& data) {
  if (data.empty()) throw std::invalid_argument("DecisionStump: empty dataset");
  DecisionStump stump;
  stump.majority_ = data.majority_class();

  std::vector<double> base_counts(data.class_count(), 0.0);
  for (std::size_t i = 0; i < data.size(); ++i)
    base_counts[data.label(i)] += 1.0;
  const double base_entropy = entropy(base_counts);

  double best_gain = 0.0;
  for (std::size_t a = 0; a < data.attribute_count(); ++a) {
    std::vector<std::size_t> known;
    for (std::size_t i = 0; i < data.size(); ++i)
      if (!is_missing(data.value(i, a))) known.push_back(i);
    if (known.size() < 2) continue;
    std::sort(known.begin(), known.end(), [&](std::size_t x, std::size_t y) {
      return data.value(x, a) < data.value(y, a);
    });
    std::vector<double> left(data.class_count(), 0.0);
    std::vector<double> right(data.class_count(), 0.0);
    for (std::size_t i : known) right[data.label(i)] += 1.0;
    const double n = static_cast<double>(known.size());
    for (std::size_t k = 0; k + 1 < known.size(); ++k) {
      const std::size_t label = data.label(known[k]);
      left[label] += 1.0;
      right[label] -= 1.0;
      const double v = data.value(known[k], a);
      const double v_next = data.value(known[k + 1], a);
      if (v == v_next) continue;
      const double n_left = static_cast<double>(k + 1);
      const double cond = n_left / n * entropy(left) +
                          (n - n_left) / n * entropy(right);
      const double gain = base_entropy - cond;
      if (gain > best_gain) {
        best_gain = gain;
        stump.attribute_ = a;
        stump.threshold_ = (v + v_next) / 2.0;
        stump.below_class_ = static_cast<std::size_t>(
            std::max_element(left.begin(), left.end()) - left.begin());
        stump.above_class_ = static_cast<std::size_t>(
            std::max_element(right.begin(), right.end()) - right.begin());
        stump.trivial_ = false;
      }
    }
  }
  return stump;
}

std::size_t DecisionStump::predict(const std::vector<double>& row) const {
  if (trivial_) return majority_;
  if (attribute_ >= row.size())
    throw std::invalid_argument("DecisionStump::predict: row too short");
  const double v = row[attribute_];
  if (is_missing(v)) return majority_;
  return v <= threshold_ ? below_class_ : above_class_;
}

namespace {
double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

LogisticRegression LogisticRegression::train(const Dataset& data,
                                             const LogisticParams& params) {
  if (data.empty())
    throw std::invalid_argument("LogisticRegression: empty dataset");
  if (data.class_count() != 2)
    throw std::invalid_argument("LogisticRegression: binary classes required");
  const std::size_t d = data.attribute_count();
  const std::size_t n = data.size();

  LogisticRegression model;
  model.means_.assign(d, 0.0);
  model.scales_.assign(d, 1.0);
  // Standardize (treat missing as the mean, i.e. 0 after centering).
  for (std::size_t a = 0; a < d; ++a) {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = data.value(i, a);
      if (!is_missing(v)) {
        sum += v;
        ++count;
      }
    }
    model.means_[a] = count ? sum / static_cast<double>(count) : 0.0;
    double var = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = data.value(i, a);
      if (!is_missing(v)) {
        var += (v - model.means_[a]) * (v - model.means_[a]);
      }
    }
    if (count > 1) var /= static_cast<double>(count - 1);
    model.scales_[a] = var > 0.0 ? std::sqrt(var) : 1.0;
  }

  model.weights_.assign(d, 0.0);
  model.bias_ = 0.0;
  std::vector<double> grad(d);
  for (std::size_t epoch = 0; epoch < params.epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_bias = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = sigmoid(model.linear(data.row(i)));
      const double err = p - static_cast<double>(data.label(i));
      for (std::size_t a = 0; a < d; ++a) {
        const double v = data.value(i, a);
        const double x =
            is_missing(v) ? 0.0 : (v - model.means_[a]) / model.scales_[a];
        grad[a] += err * x;
      }
      grad_bias += err;
    }
    const double scale = params.learning_rate / static_cast<double>(n);
    for (std::size_t a = 0; a < d; ++a) {
      model.weights_[a] -=
          scale * (grad[a] + params.l2 * model.weights_[a]);
    }
    model.bias_ -= scale * grad_bias;
  }
  return model;
}

double LogisticRegression::linear(const std::vector<double>& row) const {
  double z = bias_;
  for (std::size_t a = 0; a < weights_.size(); ++a) {
    const double v = row.at(a);
    const double x = is_missing(v) ? 0.0 : (v - means_[a]) / scales_[a];
    z += weights_[a] * x;
  }
  return z;
}

double LogisticRegression::predict_proba(const std::vector<double>& row) const {
  return sigmoid(linear(row));
}

std::size_t LogisticRegression::predict(const std::vector<double>& row) const {
  return predict_proba(row) >= 0.5 ? 1 : 0;
}

Trainer majority_trainer() {
  return [](const Dataset& data) -> Classifier {
    const MajorityClassifier m = MajorityClassifier::train(data);
    return [m](const std::vector<double>& row) { return m.predict(row); };
  };
}

Trainer stump_trainer() {
  return [](const Dataset& data) -> Classifier {
    const DecisionStump s = DecisionStump::train(data);
    return [s](const std::vector<double>& row) { return s.predict(row); };
  };
}

Trainer logistic_trainer(LogisticParams params) {
  return [params](const Dataset& data) -> Classifier {
    const LogisticRegression m = LogisticRegression::train(data, params);
    return [m](const std::vector<double>& row) { return m.predict(row); };
  };
}

}  // namespace digg::ml
