#include "src/ml/dataset.h"

#include <gtest/gtest.h>

#include <cmath>

namespace digg::ml {
namespace {

Dataset two_attr_dataset() {
  return Dataset({"x", "y"}, {"no", "yes"});
}

TEST(Dataset, ConstructionValidatesSchema) {
  EXPECT_THROW(Dataset({}, {"a", "b"}), std::invalid_argument);
  EXPECT_THROW(Dataset({"x"}, {"only"}), std::invalid_argument);
}

TEST(Dataset, AddAndAccess) {
  Dataset d = two_attr_dataset();
  d.add({1.5, 0.0}, 1);
  d.add({2.5, 1.0}, 0);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d.value(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(d.value(1, 1), 1.0);
  EXPECT_EQ(d.label(0), 1u);
  EXPECT_EQ(d.attributes()[1], "y");
  EXPECT_EQ(d.class_count(), 2u);
}

TEST(Dataset, AddValidatesRows) {
  Dataset d = two_attr_dataset();
  EXPECT_THROW(d.add({1.0}, 0), std::invalid_argument);   // width
  EXPECT_THROW(d.add({1.0, 0.0}, 5), std::out_of_range);  // label
}

TEST(Dataset, MissingValuesAllowedAnywhere) {
  Dataset d = two_attr_dataset();
  d.add({kMissing, kMissing}, 0);
  EXPECT_TRUE(is_missing(d.value(0, 0)));
  EXPECT_TRUE(is_missing(d.value(0, 1)));
}

TEST(Dataset, ClassHistogramAndMajority) {
  Dataset d = two_attr_dataset();
  d.add({1.0, 0.0}, 1);
  d.add({2.0, 0.0}, 1);
  d.add({3.0, 1.0}, 0);
  const auto hist = d.class_histogram();
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(d.majority_class(), 1u);
}

TEST(Dataset, MajorityTieBreaksToSmallestIndex) {
  Dataset d = two_attr_dataset();
  d.add({1.0, 0.0}, 0);
  d.add({2.0, 0.0}, 1);
  EXPECT_EQ(d.majority_class(), 0u);
}

TEST(Dataset, SubsetSharesSchemaAndSelectsRows) {
  Dataset d = two_attr_dataset();
  d.add({1.0, 0.0}, 0);
  d.add({2.0, 1.0}, 1);
  d.add({3.0, 0.0}, 0);
  const Dataset sub = d.subset({2, 0});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_DOUBLE_EQ(sub.value(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sub.value(1, 0), 1.0);
  EXPECT_EQ(sub.attribute_count(), 2u);
}

TEST(Dataset, OutOfRangeAccessThrows) {
  Dataset d = two_attr_dataset();
  d.add({1.0, 0.0}, 0);
  EXPECT_THROW(d.row(1), std::out_of_range);
  EXPECT_THROW(d.label(1), std::out_of_range);
}

TEST(IsMissing, DetectsOnlyNan) {
  EXPECT_TRUE(is_missing(kMissing));
  EXPECT_TRUE(is_missing(std::nan("")));
  EXPECT_FALSE(is_missing(0.0));
  EXPECT_FALSE(is_missing(1e300));
}

}  // namespace
}  // namespace digg::ml
