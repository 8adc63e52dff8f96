#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace wrt::util {
namespace {

TEST(Table, PrintsTitleAndColumns) {
  Table t("demo", {"a", "b"});
  t.add_row({std::int64_t{1}, 2.5});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("2.500"), std::string::npos);
}

TEST(Table, CsvRoundTrip) {
  Table t("csv", {"x", "y", "label"});
  t.add_row({std::int64_t{10}, 0.5, std::string("hello")});
  t.add_row({std::int64_t{20}, 1.5, std::string("with,comma")});
  std::ostringstream os;
  t.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("x,y,label"), std::string::npos);
  EXPECT_NE(out.find("10,0.500,hello"), std::string::npos);
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
}

TEST(Table, CountsRows) {
  Table t("r", {"v"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({std::int64_t{1}});
  t.add_row({std::int64_t{2}});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, AlignsWideCells) {
  Table t("w", {"col"});
  t.add_row({std::string("a-very-wide-cell-value")});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("a-very-wide-cell-value"), std::string::npos);
}

}  // namespace
}  // namespace wrt::util
