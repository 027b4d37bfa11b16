#pragma once
// Dataset for the learners. The paper trains a C4.5 (J48) tree on stories
// with numeric attributes (v10 = in-network votes within the first ten,
// fans1 = submitter's fan count) and a boolean class (interesting: final
// votes > 520). Every attribute is numeric, so the schema is a list of
// attribute names plus string class labels; extended feature sets (v6, v20,
// influence) drop in without new code.

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace digg::ml {

/// Sentinel for a missing attribute value.
inline constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();
[[nodiscard]] bool is_missing(double value) noexcept;

/// Instances are dense rows of doubles, one value per attribute. The class
/// label is stored separately as an index into class_names().
class Dataset {
 public:
  Dataset(std::vector<std::string> attributes,
          std::vector<std::string> class_names);

  /// Appends an instance; `row` must have one value per attribute, `label`
  /// must index class_names. Throws on size/range violations.
  void add(std::vector<double> row, std::size_t label);

  [[nodiscard]] std::size_t size() const noexcept { return labels_.size(); }
  [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }
  [[nodiscard]] std::size_t attribute_count() const noexcept {
    return attributes_.size();
  }
  [[nodiscard]] std::size_t class_count() const noexcept {
    return class_names_.size();
  }
  /// Attribute names, in row order.
  [[nodiscard]] const std::vector<std::string>& attributes() const noexcept {
    return attributes_;
  }
  [[nodiscard]] const std::vector<std::string>& class_names() const noexcept {
    return class_names_;
  }

  [[nodiscard]] const std::vector<double>& row(std::size_t i) const;
  [[nodiscard]] double value(std::size_t i, std::size_t a) const;
  [[nodiscard]] std::size_t label(std::size_t i) const;

  /// Class frequency counts over all instances.
  [[nodiscard]] std::vector<std::size_t> class_histogram() const;
  /// Majority class index (smallest index wins ties).
  [[nodiscard]] std::size_t majority_class() const;

  /// Subset containing the given instance indices (shares the schema).
  [[nodiscard]] Dataset subset(const std::vector<std::size_t>& indices) const;

 private:
  std::vector<std::string> attributes_;
  std::vector<std::string> class_names_;
  std::vector<std::vector<double>> rows_;
  std::vector<std::size_t> labels_;
};

}  // namespace digg::ml
