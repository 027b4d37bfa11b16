#include "src/stats/timeseries.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace digg::stats {
namespace {

TimeSeries make_series() {
  TimeSeries ts;
  ts.append(0.0, 1.0);
  ts.append(10.0, 5.0);
  ts.append(20.0, 5.0);
  ts.append(40.0, 25.0);
  return ts;
}

TEST(TimeSeries, AppendRejectsBackwardsTime) {
  TimeSeries ts;
  ts.append(5.0, 1.0);
  EXPECT_THROW(ts.append(4.0, 2.0), std::invalid_argument);
  ts.append(5.0, 2.0);  // equal time is fine (votes share a step)
  EXPECT_EQ(ts.size(), 2u);
}

TEST(TimeSeries, AtInterpolatesLinearly) {
  const TimeSeries ts = make_series();
  EXPECT_DOUBLE_EQ(ts.at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ts.at(5.0), 3.0);
  EXPECT_DOUBLE_EQ(ts.at(15.0), 5.0);
  EXPECT_DOUBLE_EQ(ts.at(30.0), 15.0);
}

TEST(TimeSeries, AtClampsOutsideRange) {
  const TimeSeries ts = make_series();
  EXPECT_DOUBLE_EQ(ts.at(-100.0), 1.0);
  EXPECT_DOUBLE_EQ(ts.at(100.0), 25.0);
}

TEST(TimeSeries, AtThrowsOnEmpty) {
  TimeSeries ts;
  EXPECT_THROW(ts.at(1.0), std::logic_error);
}

TEST(TimeSeries, ResampleProducesRegularGrid) {
  const TimeSeries ts = make_series();
  const TimeSeries r = ts.resample(40.0, 5);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_DOUBLE_EQ(r.times()[0], 0.0);
  EXPECT_DOUBLE_EQ(r.times()[4], 40.0);
  EXPECT_DOUBLE_EQ(r.values()[0], 1.0);
  EXPECT_DOUBLE_EQ(r.values()[4], 25.0);
}

TEST(TimeSeries, ResampleOfEmptyIsZeros) {
  TimeSeries ts;
  const TimeSeries r = ts.resample(10.0, 3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r.values()[1], 0.0);
}

TEST(TimeSeries, ResampleRejectsTooFewPoints) {
  EXPECT_THROW(make_series().resample(10.0, 1), std::invalid_argument);
}

TEST(TimeSeries, HalfLifeOfLinearGrowth) {
  TimeSeries ts;
  for (int i = 0; i <= 100; ++i)
    ts.append(static_cast<double>(i), static_cast<double>(i));
  const auto hl = ts.half_life(0.0);
  ASSERT_TRUE(hl.has_value());
  EXPECT_NEAR(*hl, 50.0, 1.0);
}

TEST(TimeSeries, HalfLifeNulloptWithoutGrowth) {
  TimeSeries ts;
  ts.append(0.0, 5.0);
  ts.append(10.0, 5.0);
  EXPECT_FALSE(ts.half_life(0.0).has_value());
  TimeSeries empty;
  EXPECT_FALSE(empty.half_life(0.0).has_value());
}

TEST(TimeSeries, HalfLifeFromMidSeries) {
  TimeSeries ts;
  ts.append(0.0, 0.0);
  ts.append(10.0, 100.0);   // fast early growth
  ts.append(20.0, 150.0);   // remaining growth from t=10: 100
  ts.append(30.0, 200.0);
  const auto hl = ts.half_life(10.0);
  ASSERT_TRUE(hl.has_value());
  EXPECT_DOUBLE_EQ(*hl, 10.0);  // reaches 150 at t=20
}

}  // namespace
}  // namespace digg::stats
