// Report serialization: the JSON report must stay valid JSON whatever
// text a cell carries, because load errors are free-form exception
// messages.

#include "experiment/report.hpp"

#include <gtest/gtest.h>

namespace mahimahi::experiment {
namespace {

TEST(Report, LoadErrorsEscapeControlCharacters) {
  Report report;
  report.name = "escape";
  CellResult cell;
  cell.load_errors = {"reset\nby \"peer\"\t\\"};
  report.cells.push_back(cell);
  const std::string json = report.to_json();
  EXPECT_NE(json.find(R"("load_errors": ["reset\nby \"peer\"\t\\"])"),
            std::string::npos)
      << json;
  // No raw control byte may reach the output inside a string literal: the
  // only newlines left are the report's own line breaks.
  EXPECT_EQ(json.find("reset\n"), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

}  // namespace
}  // namespace mahimahi::experiment
