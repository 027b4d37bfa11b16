#include "src/ml/arff.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace digg::ml {
namespace {

namespace fs = std::filesystem;

class ArffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::temp_directory_path() /
            (std::string("digg_arff_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".arff");
    fs::remove(path_);
  }
  void TearDown() override { fs::remove(path_); }
  fs::path path_;
};

TEST_F(ArffTest, WriteContainsHeaderAndData) {
  Dataset d({"v10", "fans1"}, {"no", "yes"});
  d.add({3.0, 85.0}, 1);
  d.add({7.5, kMissing}, 0);
  d.add({kMissing, 12.0}, 1);
  std::ostringstream os;
  write_arff(d, "digg_stories", os);
  const std::string out = os.str();
  EXPECT_NE(out.find("@RELATION digg_stories"), std::string::npos);
  EXPECT_NE(out.find("@ATTRIBUTE v10 NUMERIC"), std::string::npos);
  EXPECT_NE(out.find("@ATTRIBUTE fans1 NUMERIC"), std::string::npos);
  EXPECT_NE(out.find("@ATTRIBUTE class {no,yes}"), std::string::npos);
  EXPECT_NE(out.find("@DATA"), std::string::npos);
  EXPECT_NE(out.find("3,85,yes"), std::string::npos);
  EXPECT_NE(out.find("7.5,?,no"), std::string::npos);
  EXPECT_NE(out.find("?,12,yes"), std::string::npos);
}

// Values that the default six significant digits would round (1234567 ->
// 1.23457e+06, 0.1234567 -> 0.123457) must reach the file exactly, and the
// caller's stream precision must survive the call.
TEST_F(ArffTest, WritesExactDigitsAndRestoresPrecision) {
  Dataset d({"v10", "fans1"}, {"no", "yes"});
  d.add({0.1234567, 1234567.0}, 1);
  d.add({4.0, kMissing}, 0);
  save_arff(d, "digits", path_);
  std::ifstream in(path_);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(),
            "@RELATION digits\n"
            "\n"
            "@ATTRIBUTE v10 NUMERIC\n"
            "@ATTRIBUTE fans1 NUMERIC\n"
            "@ATTRIBUTE class {no,yes}\n"
            "\n"
            "@DATA\n"
            "0.1234567,1234567,yes\n"
            "4,?,no\n");

  std::ostringstream os;
  os.precision(3);
  write_arff(d, "digits", os);
  EXPECT_EQ(os.precision(), 3);
}

}  // namespace
}  // namespace digg::ml
