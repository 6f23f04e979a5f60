#include "common/table.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/units.h"

namespace graf {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t{"demo"};
  t.header({"a", "bb"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  const std::string s = t.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
}

TEST(Table, ColumnsAligned) {
  Table t{"align"};
  t.header({"x", "y"});
  t.row({"12345", "1"});
  const std::string s = t.str();
  // Header "y" starts after width of "12345" + 2 pad -> same column as "1".
  std::istringstream is{s};
  std::string title;
  std::getline(is, title);
  std::string header;
  std::getline(is, header);
  std::string sep;
  std::getline(is, sep);
  std::string row;
  std::getline(is, row);
  EXPECT_EQ(header.find('y'), row.find('1', 1));
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(5.0, 0), "5");
  EXPECT_EQ(Table::integer(42), "42");
}

TEST(Units, MillicoreConversions) {
  EXPECT_DOUBLE_EQ(cores(500.0), 0.5);
  EXPECT_DOUBLE_EQ(millicores(2.0), 2000.0);
  EXPECT_DOUBLE_EQ(cores(millicores(1.25)), 1.25);
}

}  // namespace
}  // namespace graf
