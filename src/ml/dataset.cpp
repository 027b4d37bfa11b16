#include "src/ml/dataset.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace digg::ml {

bool is_missing(double value) noexcept { return std::isnan(value); }

Dataset::Dataset(std::vector<std::string> attributes,
                 std::vector<std::string> class_names)
    : attributes_(std::move(attributes)),
      class_names_(std::move(class_names)) {
  if (attributes_.empty())
    throw std::invalid_argument("Dataset: no attributes");
  if (class_names_.size() < 2)
    throw std::invalid_argument("Dataset: need at least two classes");
}

void Dataset::add(std::vector<double> row, std::size_t label) {
  if (row.size() != attributes_.size())
    throw std::invalid_argument("Dataset::add: row width mismatch");
  if (label >= class_names_.size())
    throw std::out_of_range("Dataset::add: bad label");
  rows_.push_back(std::move(row));
  labels_.push_back(label);
}

const std::vector<double>& Dataset::row(std::size_t i) const {
  if (i >= rows_.size()) throw std::out_of_range("Dataset::row: bad index");
  return rows_[i];
}

double Dataset::value(std::size_t i, std::size_t a) const {
  return row(i).at(a);
}

std::size_t Dataset::label(std::size_t i) const {
  if (i >= labels_.size()) throw std::out_of_range("Dataset::label: bad index");
  return labels_[i];
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> hist(class_names_.size(), 0);
  for (std::size_t l : labels_) ++hist[l];
  return hist;
}

std::size_t Dataset::majority_class() const {
  const std::vector<std::size_t> hist = class_histogram();
  return static_cast<std::size_t>(
      std::max_element(hist.begin(), hist.end()) - hist.begin());
}

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
  Dataset out(attributes_, class_names_);
  for (std::size_t i : indices) {
    out.add(row(i), label(i));
  }
  return out;
}

}  // namespace digg::ml
