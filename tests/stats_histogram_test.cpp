#include "src/stats/histogram.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace digg::stats {
namespace {

TEST(LinearHistogram, BinsPartitionRange) {
  LinearHistogram h(0.0, 100.0, 10);
  EXPECT_EQ(h.bin_count(), 10u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 10.0);
  EXPECT_DOUBLE_EQ(h.bin(0).lo, 0.0);
  EXPECT_DOUBLE_EQ(h.bin(0).hi, 10.0);
  EXPECT_DOUBLE_EQ(h.bin(9).hi, 100.0);
}

TEST(LinearHistogram, CountsLandInCorrectBins) {
  LinearHistogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(1.9);
  h.add(2.0);  // boundary -> bin 1
  h.add(9.99);
  EXPECT_EQ(h.bin(0).count, 2u);
  EXPECT_EQ(h.bin(1).count, 1u);
  EXPECT_EQ(h.bin(4).count, 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(LinearHistogram, OutOfRangeValuesClampToEdges) {
  LinearHistogram h(0.0, 10.0, 5);
  h.add(-5.0);
  h.add(100.0);
  EXPECT_EQ(h.bin(0).count, 1u);
  EXPECT_EQ(h.bin(4).count, 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(LinearHistogram, AddManyMatchesRepeatedAdd) {
  LinearHistogram a(0.0, 10.0, 5);
  LinearHistogram b(0.0, 10.0, 5);
  const std::vector<double> values = {1.0, 2.0, 3.0, 7.5, 9.0};
  a.add_many(values);
  for (double v : values) b.add(v);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(a.bin(i).count, b.bin(i).count);
}

TEST(LinearHistogram, RejectsBadConstruction) {
  EXPECT_THROW(LinearHistogram(5.0, 5.0, 10), std::invalid_argument);
  EXPECT_THROW(LinearHistogram(5.0, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(LinearHistogram(0.0, 10.0, 0), std::invalid_argument);
}

TEST(LinearHistogram, BinIndexOutOfRangeThrows) {
  LinearHistogram h(0.0, 10.0, 2);
  EXPECT_THROW(h.bin(2), std::out_of_range);
}

TEST(LogHistogram, PowersOfTwoBinning) {
  LogHistogram h(2.0);
  h.add(1);   // [1,2) -> bin 0
  h.add(2);   // [2,4) -> bin 1
  h.add(3);   // bin 1
  h.add(4);   // bin 2
  h.add(15);  // bin 3
  const auto bins = h.bins();
  ASSERT_EQ(bins.size(), 4u);
  EXPECT_EQ(bins[0].count, 1u);
  EXPECT_EQ(bins[1].count, 2u);
  EXPECT_EQ(bins[2].count, 1u);
  EXPECT_EQ(bins[3].count, 1u);
}

TEST(LogHistogram, ZerosCountedSeparately) {
  LogHistogram h;
  h.add(0);
  h.add(0);
  h.add(5);
  EXPECT_EQ(h.zeros(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(LogHistogram, RejectsBadBase) {
  EXPECT_THROW(LogHistogram(1.0), std::invalid_argument);
  EXPECT_THROW(LogHistogram(0.5), std::invalid_argument);
}

TEST(FrequencyCounter, CountsExactValues) {
  FrequencyCounter c;
  c.add(3);
  c.add(3);
  c.add(-1);
  EXPECT_EQ(c.count(3), 2u);
  EXPECT_EQ(c.count(-1), 1u);
  EXPECT_EQ(c.count(0), 0u);
  EXPECT_EQ(c.total(), 3u);
}

TEST(FrequencyCounter, MinMaxAndItemsSorted) {
  FrequencyCounter c;
  c.add(5);
  c.add(-2);
  c.add(9);
  EXPECT_EQ(c.max_value(), 9);
  const auto items = c.items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items.front().first, -2);
  EXPECT_EQ(items.back().first, 9);
}

TEST(FrequencyCounter, EmptyThrowsOnMinMax) {
  FrequencyCounter c;
  EXPECT_TRUE(c.empty());
  EXPECT_THROW(c.max_value(), std::logic_error);
}

}  // namespace
}  // namespace digg::stats
