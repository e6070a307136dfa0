//===- tests/integration/ExperimentsSummaryTest.cpp - EXPERIMENTS.md pin --===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// EXPERIMENTS.md's "Summary of headline results" quotes the paper
// suite's averages. This test reads that table and the committed
// bench_paper_suite document (docs/reports/paper_suite.json) and fails
// when a numeric "Measured" cell differs from its scalar, rounded the
// way the cell prints it, so the prose cannot drift from the numbers.
//
//===----------------------------------------------------------------------===//

#include "support/FileIo.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

using namespace greenweb;

namespace {

std::string readSource(const std::string &Relative) {
  std::string Text, Error;
  EXPECT_TRUE(readFile(GW_SOURCE_DIR "/" + Relative, Text, &Error)) << Error;
  return Text;
}

/// The scalars each numeric "Measured" cell quotes, in the cell's
/// order, keyed by the row's claim.
const std::map<std::string, std::vector<std::string>> Quoted = {
    {"Full-session energy saving vs Interactive, imperceptible",
     {"fig10.saving_vs_interactive_pct.gw_i"}},
    {"Full-session energy saving vs Interactive, usable",
     {"fig10.saving_vs_interactive_pct.gw_u"}},
    {"Extra QoS violations vs Perf, full sessions (I / U)",
     {"fig10.extra_violation_pct.gw_i", "fig10.extra_violation_pct.gw_u"}},
    {"Micro energy saving vs Perf (I / U)",
     {"fig9.saving_vs_perf_pct.gw_i", "fig9.saving_vs_perf_pct.gw_u"}},
    {"Micro extra violations (I / U)",
     {"fig9.extra_violation_pct.gw_i", "fig9.extra_violation_pct.gw_u"}},
    {"Interactive ≈ Perf", {"fig10.interactive_of_perf_pct"}},
    {"Session stats: ~43 s, ~94 events",
     {"table3.mean_session_s", "table3.mean_events"}},
};

/// The (claim, measured) cells of the summary table in \p Markdown.
std::vector<std::pair<std::string, std::string>>
summaryRows(const std::string &Markdown) {
  std::vector<std::pair<std::string, std::string>> Rows;
  size_t Pos = Markdown.find("## Summary of headline results");
  if (Pos == std::string::npos)
    return Rows;
  std::vector<std::string_view> Lines =
      split(std::string_view(Markdown).substr(Pos), '\n');
  size_t Measured = 0;
  for (size_t L = 1; L < Lines.size(); ++L) {
    std::string_view Line = trim(Lines[L]);
    if (Line.empty() && Measured == 0)
      continue;
    if (!startsWith(Line, "|"))
      break;
    std::vector<std::string_view> Cells = split(Line, '|');
    for (std::string_view &Cell : Cells)
      Cell = trim(Cell);
    if (Measured == 0) { // The header row names the column.
      for (size_t C = 0; C < Cells.size(); ++C)
        if (Cells[C] == "Measured")
          Measured = C;
      continue;
    }
    if (Cells.size() <= Measured || startsWith(Cells[1], "---"))
      continue;
    Rows.emplace_back(Cells[1], Cells[Measured]);
  }
  return Rows;
}

/// Every number in \p Cell as printed ("+2.4", "42").
std::vector<std::string> numbers(const std::string &Cell) {
  static const std::regex Number("[+-]?[0-9]+(\\.[0-9]+)?");
  std::vector<std::string> Out;
  for (std::sregex_iterator It(Cell.begin(), Cell.end(), Number), End;
       It != End; ++It)
    Out.push_back(It->str());
  return Out;
}

/// \p Value printed like \p Printed: as many decimals, and a sign when
/// \p Printed has one.
std::string printedLike(double Value, const std::string &Printed) {
  size_t Dot = Printed.find('.');
  int Decimals = Dot == std::string::npos ? 0 : int(Printed.size() - Dot - 1);
  bool Signed = Printed[0] == '+' || Printed[0] == '-';
  return formatString(Signed ? "%+.*f" : "%.*f", Decimals, Value);
}

} // namespace

TEST(ExperimentsSummaryTest, MeasuredCellsMatchTheCommittedPaperSuite) {
  json::Reader R(readSource("docs/reports/paper_suite.json"), "paper suite");
  std::map<std::string, double> Scalars;
  if (const json::Value *Array = R.array("scalars"))
    for (const json::Value &V : Array->Arr) {
      json::Reader S = R.child(V, "scalar");
      Scalars[S.string("name")] = S.number("value", 0.0);
    }
  std::string Error;
  ASSERT_TRUE(R.finish(&Error)) << Error;

  std::vector<std::pair<std::string, std::string>> Rows =
      summaryRows(readSource("EXPERIMENTS.md"));
  ASSERT_FALSE(Rows.empty()) << "no summary table in EXPERIMENTS.md";
  size_t Checked = 0;
  for (const auto &[Claim, Measured] : Rows) {
    std::vector<std::string> Printed = numbers(Measured);
    if (Printed.empty())
      continue;
    auto It = Quoted.find(Claim);
    ASSERT_NE(It, Quoted.end()) << "no scalar pinned for '" << Claim << "'";
    ASSERT_EQ(Printed.size(), It->second.size()) << Claim;
    for (size_t I = 0; I < Printed.size(); ++I) {
      const std::string &Name = It->second[I];
      auto Scalar = Scalars.find(Name);
      ASSERT_NE(Scalar, Scalars.end()) << "paper_suite.json lacks " << Name;
      EXPECT_EQ(Printed[I], printedLike(Scalar->second, Printed[I]))
          << Claim << " quotes " << Name;
    }
    ++Checked;
  }
  EXPECT_EQ(Checked, Quoted.size());
}
