#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.h"
#include "util/flags.h"

namespace bufq {
namespace {

TEST(CsvWriterTest, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv{out, {"a", "b"}};
  csv.row({"1", "2"});
  csv.row({3.5, 4.25});
  EXPECT_EQ(out.str(), "a,b\n1,2\n3.5,4.25\n");
  EXPECT_EQ(csv.rows_written(), 2u);
  EXPECT_EQ(csv.columns(), 2u);
}

TEST(CsvWriterTest, FormatsDoublesCompactly) {
  std::ostringstream out;
  CsvWriter csv{out, {"x"}};
  csv.row({0.30000000000000004});
  EXPECT_EQ(out.str(), "x\n0.3\n");
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table{{"name", "v"}};
  table.row({"short", "1"});
  table.row({"a-much-longer-name", "22"});
  std::ostringstream out;
  table.print(out);
  const std::string s = out.str();
  // All three lines have equal length (padded).
  const auto l1 = s.find('\n');
  const auto l2 = s.find('\n', l1 + 1);
  const auto l3 = s.find('\n', l2 + 1);
  EXPECT_EQ(l1, l2 - l1 - 1);
  EXPECT_EQ(l2 - l1 - 1, l3 - l2 - 1);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FormatDoubleTest, SixSignificantDigits) {
  EXPECT_EQ(format_double(1234567.0), "1.23457e+06");
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(48.0), "48");
}

TEST(FlagsTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=1.5", "--name", "hello", "--on"};
  Flags flags{5, argv};
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(flags.get_string("name", ""), "hello");
  EXPECT_TRUE(flags.get_bool("on", false));
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags{1, argv};
  EXPECT_DOUBLE_EQ(flags.get_double("x", 2.5), 2.5);
  EXPECT_EQ(flags.get_int("n", 7), 7);
  EXPECT_EQ(flags.get_string("s", "dflt"), "dflt");
  EXPECT_FALSE(flags.get_bool("b", false));
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  const char* argv[] = {"prog", "pos1", "--k=v", "pos2"};
  Flags flags{4, argv};
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(FlagsTest, IntegerParsing) {
  const char* argv[] = {"prog", "--n=42"};
  Flags flags{2, argv};
  EXPECT_EQ(flags.get_int("n", 0), 42);
}

TEST(FlagsTest, MalformedNumberThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  Flags flags{2, argv};
  EXPECT_THROW((void)flags.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_double("n", 0), std::invalid_argument);
}

TEST(FlagsTest, MalformedBoolThrows) {
  const char* argv[] = {"prog", "--b=maybe"};
  Flags flags{2, argv};
  EXPECT_THROW((void)flags.get_bool("b", false), std::invalid_argument);
}

TEST(FlagsTest, BoolSynonyms) {
  const char* argv[] = {"prog", "--a=1", "--b=no", "--c=yes", "--d=0"};
  Flags flags{5, argv};
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_TRUE(flags.get_bool("c", false));
  EXPECT_FALSE(flags.get_bool("d", true));
}

TEST(FlagsTest, CountsRejectValuesBelowTheMinimum) {
  const char* argv[] = {"prog", "--seeds=0", "--jobs=-1", "--ok=3"};
  Flags flags{4, argv};
  EXPECT_THROW((void)flags.get_count("seeds", 5, 1), std::invalid_argument);
  EXPECT_THROW((void)flags.get_count("jobs", 0, 0), std::invalid_argument);
  EXPECT_EQ(flags.get_count("ok", 5, 1), 3u);
  EXPECT_EQ(flags.get_count("absent", 5, 1), 5u);
}

TEST(FlagsTest, DoubleListSplitsOnCommas) {
  const char* argv[] = {"prog", "--buffers=0.5,1,2.25", "--bad=0.5,,1"};
  Flags flags{3, argv};
  EXPECT_EQ(flags.get_double_list("buffers"), (std::vector<double>{0.5, 1.0, 2.25}));
  EXPECT_THROW((void)flags.get_double_list("bad"), std::invalid_argument);
  EXPECT_FALSE(flags.get_double_list("absent").has_value());
}

TEST(FlagsTest, UnusedTracksUnreadFlags) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  Flags flags{3, argv};
  (void)flags.get_int("used", 0);
  EXPECT_EQ(flags.unused(), (std::vector<std::string>{"typo"}));
}

}  // namespace
}  // namespace bufq
