#include "src/stats/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace digg::stats {
namespace {

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, ColumnsAligned) {
  TextTable t({"a", "b"});
  t.add_row({"xxxx", "1"});
  t.add_row({"y", "2"});
  const std::string out = t.render();
  // Column b starts at the same offset in both data lines.
  std::istringstream is(out);
  std::string header, underline, r1, r2;
  std::getline(is, header);
  std::getline(is, underline);
  std::getline(is, r1);
  std::getline(is, r2);
  EXPECT_EQ(r1.find('1'), r2.find('2'));
}

TEST(TextTable, RejectsEmptyHeaderAndMismatchedRows) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Fmt, FormatsNumbers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(std::int64_t{-42}), "-42");
  EXPECT_EQ(fmt_pct(0.357), "35.7%");
  EXPECT_EQ(fmt_pct(1.0), "100.0%");
}

TEST(RenderBars, ScalesToMaxWidth) {
  std::vector<Bin> bins = {{0, 10, 10}, {10, 20, 5}, {20, 30, 0}};
  const std::string out = render_bars(bins, 10);
  // Largest bin gets 10 hashes, half-size bin gets 5, empty none.
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_EQ(out.find("###########"), std::string::npos);
}

TEST(RenderBars, ItemsVariantIncludesValues) {
  const std::string out =
      render_bars(std::vector<std::pair<std::int64_t, std::uint64_t>>{
          {3, 7}, {4, 14}});
  EXPECT_NE(out.find('3'), std::string::npos);
  EXPECT_NE(out.find("14"), std::string::npos);
}

TEST(RenderBars, AllZeroCountsProduceNoBars) {
  std::vector<Bin> bins = {{0, 1, 0}, {1, 2, 0}};
  const std::string out = render_bars(bins, 10);
  EXPECT_EQ(out.find('#'), std::string::npos);
}

TEST(RenderSeries, OneLinePerSample) {
  const std::string out = render_series({0.0, 1.0, 2.0}, {0.0, 5.0, 10.0}, 20);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(RenderSeries, RejectsMismatchedSizes) {
  EXPECT_THROW(render_series({0.0}, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace digg::stats
