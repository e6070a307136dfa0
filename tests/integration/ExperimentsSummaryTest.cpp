//===- tests/integration/ExperimentsSummaryTest.cpp - EXPERIMENTS.md pin --===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// EXPERIMENTS.md's "Summary of headline results" quotes the paper
// suite's averages, and its Ablations table and AUTOGREEN paragraph
// quote the design suite. This test reads them and the committed
// documents (docs/reports/paper_suite.json, design_suite.json) and fails
// when a printed number differs from its scalar, rounded the way the
// text prints it, or when an ordering the text states does not match
// the design suite's 0/1 scalars, so the prose cannot drift from the
// numbers.
//
//===----------------------------------------------------------------------===//

#include "support/FileIo.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
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

/// The scalars of the committed document \p Relative, by name.
std::map<std::string, double> scalars(const std::string &Relative) {
  json::Reader R(readSource(Relative), Relative);
  std::map<std::string, double> Scalars;
  if (const json::Value *Array = R.array("scalars"))
    for (const json::Value &V : Array->Arr) {
      json::Reader S = R.child(V, "scalar");
      Scalars[S.string("name")] = S.number("value", 0.0);
    }
  std::string Error;
  EXPECT_TRUE(R.finish(&Error)) << Error;
  return Scalars;
}

/// The (first, \p Column) cells of the table under \p Heading in
/// \p Markdown.
std::vector<std::pair<std::string, std::string>>
tableRows(const std::string &Markdown, const std::string &Heading,
          std::string_view Column) {
  std::vector<std::pair<std::string, std::string>> Rows;
  size_t Pos = Markdown.find(Heading);
  if (Pos == std::string::npos)
    return Rows;
  std::vector<std::string_view> Lines =
      split(std::string_view(Markdown).substr(Pos), '\n');
  size_t Wanted = 0;
  bool InTable = false;
  for (size_t L = 1; L < Lines.size(); ++L) {
    std::string_view Line = trim(Lines[L]);
    if (!startsWith(Line, "|")) {
      if (InTable || startsWith(Line, "#"))
        break;
      continue; // Prose between the heading and its table.
    }
    InTable = true;
    std::vector<std::string_view> Cells = split(Line, '|');
    for (std::string_view &Cell : Cells)
      Cell = trim(Cell);
    if (Wanted == 0) { // The header row names the column.
      for (size_t C = 0; C < Cells.size(); ++C)
        if (Cells[C] == Column)
          Wanted = C;
      continue;
    }
    if (Cells.size() <= Wanted || startsWith(Cells[1], "---"))
      continue;
    Rows.emplace_back(Cells[1], Cells[Wanted]);
  }
  return Rows;
}

/// Every number in \p Cell as printed ("+2.4", "42"), but not digits
/// inside a name such as W3Schools or A15.
std::vector<std::string> numbers(const std::string &Cell) {
  static const std::regex Number("(^|[^A-Za-z0-9.])([+-]?[0-9]+(\\.[0-9]+)?)");
  std::vector<std::string> Out;
  for (std::sregex_iterator It(Cell.begin(), Cell.end(), Number), End;
       It != End; ++It)
    Out.push_back((*It)[2].str());
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

/// Expects each number printed in \p Text to read as the scalar of
/// \p Names in the same place, printed alike.
void expectQuotes(const std::string &Claim, const std::string &Text,
                  const std::vector<std::string> &Names,
                  const std::map<std::string, double> &Scalars) {
  std::vector<std::string> Printed = numbers(Text);
  ASSERT_EQ(Printed.size(), Names.size()) << Claim << ": " << Text;
  for (size_t I = 0; I < Printed.size(); ++I) {
    auto Scalar = Scalars.find(Names[I]);
    ASSERT_NE(Scalar, Scalars.end()) << "no scalar " << Names[I];
    EXPECT_EQ(Printed[I], printedLike(Scalar->second, Printed[I]))
        << Claim << " quotes " << Names[I];
  }
}

/// What a design claim in EXPERIMENTS.md pins: the scalar each printed
/// number quotes, in order, and each ordering it states, as a family of
/// 0/1 scalars and the members where the text says it holds ("*" for
/// all of them); every other member must read 0.
struct DesignClaim {
  std::vector<std::string> Quoted;
  std::map<std::string, std::vector<std::string>> Holds;
};

/// Keyed by the Ablations row's Id (its first word), and "AUTOGREEN" for
/// the Sec. 5 "Measured" paragraph.
const std::map<std::string, DesignClaim> DesignClaims = {
    {"AUTOGREEN",
     {{"autogreen.auto_of_manual_pct.CamanJS",
       "autogreen.auto_of_manual_pct.LZMA-JS",
       "autogreen.auto_of_manual_pct.Todo",
       "autogreen.auto_of_manual_pct.Goo.ne.jp",
       "autogreen.auto_of_manual_pct.W3Schools"},
      {{"autogreen.auto_above_manual", {"*"}}}}},
    {"A1",
     {{"a1.energy_mj.Cnet.u.on", "a1.energy_mj.Cnet.u.off",
       "a1.recalibrations.Cnet.i.on", "a1.recalibrations.Cnet.i.off",
       "a1.recalibrations.Cnet.u.on", "a1.recalibrations.Cnet.u.off",
       "a1.recalibrations.W3Schools.i.on",
       "a1.recalibrations.W3Schools.i.off"},
      {{"a1.off_raises_violations",
        {"Cnet.i", "Cnet.u", "W3Schools.i", "Amazon.u"}},
       {"a1.off_energy_not_above", {"*"}}}}},
    {"A2",
     {{"a2.attack_of_honest_pct.min", "a2.attack_of_honest_pct.max",
       "a2.clamp_of_honest_pct.min", "a2.budget_of_honest_pct.min",
       "a2.budget_of_honest_pct.max"},
      {{"a2.attack_above_honest", {"*"}}, {"a2.budget_between", {"*"}}}}},
    {"A3",
     {{"a3.frames_optimized.Goo.ne.jp.forced",
       "a3.frames_optimized.Goo.ne.jp.correct",
       "a3.frames_optimized.W3Schools.forced",
       "a3.frames_optimized.W3Schools.correct",
       "a3.violation_i_pct.Goo.ne.jp.correct",
       "a3.violation_i_pct.Goo.ne.jp.forced",
       "a3.violation_i_pct.W3Schools.correct",
       "a3.violation_i_pct.W3Schools.forced", "a3.energy_mj.CamanJS.correct",
       "a3.energy_mj.CamanJS.forced", "a3.energy_mj.Todo.correct",
       "a3.energy_mj.Todo.forced"},
      {{"a3.forced_fewer_frames", {"Goo.ne.jp", "W3Schools"}},
       {"a3.forced_more_violations", {"Goo.ne.jp", "W3Schools"}},
       {"a3.forced_more_energy", {}}}}},
    {"A4",
     {{"a4.energy_of_perf_pct.MSN.Ondemand",
       "a4.energy_of_perf_pct.Goo.ne.jp.Ondemand",
       "a4.energy_of_perf_pct.Paper.js.Ondemand",
       "a4.energy_of_perf_pct.MSN.GreenWeb-I",
       "a4.energy_of_perf_pct.Goo.ne.jp.GreenWeb-I",
       "a4.energy_of_perf_pct.Paper.js.GreenWeb-I",
       "a4.violation_i_pct.MSN.Ondemand",
       "a4.violation_i_pct.Goo.ne.jp.Ondemand",
       "a4.violation_i_pct.Paper.js.Ondemand",
       "a4.violation_i_pct.MSN.GreenWeb-I",
       "a4.violation_i_pct.Goo.ne.jp.GreenWeb-I",
       "a4.violation_i_pct.Paper.js.GreenWeb-I"},
      {{"a4.powersave_below_gw_u", {"*"}},
       {"a4.gw_u_not_above_gw_i", {"*"}},
       {"a4.gw_i_below_interactive", {"*"}},
       {"a4.interactive_below_perf", {"*"}},
       {"a4.ondemand_below_perf", {"*"}},
       {"a4.gw_i_below_ondemand", {"CamanJS"}},
       {"a4.ondemand_violation_i_above_gw_i",
        {"MSN", "Goo.ne.jp", "Paper.js"}},
       {"a4.powersave_violation_i_above_gw_i", {"*"}}}}},
    {"A5", {{"a5.max_error_pct.2000k", "a5.max_error_pct.8000k"}, {}}},
    {"A6",
     {{"a6.profiling_frames.Cnet.2", "a6.profiling_frames.Cnet.never",
       "a6.profiling_frames.W3Schools.2",
       "a6.profiling_frames.W3Schools.never",
       "a6.violation_u_pct.Cnet.never", "a6.violation_u_pct.Cnet.6",
       "a6.violation_u_pct.W3Schools.never",
       "a6.violation_u_pct.W3Schools.6", "a6.energy_mj.Cnet.never",
       "a6.energy_mj.Cnet.6"},
      {{"a6.small_profiles_more", {"*"}},
       {"a6.never_violates_more", {}},
       {"a6.default_dominated", {"*"}}}}},
    {"A7",
     {{"a7.ebs_over_gw_u.min", "a7.ebs_over_gw_u.max", "a7.ebs_over_gw_u.MSN",
       "a7.ebs_over_gw_u.CamanJS", "a7.ebs_over_gw_u.Goo.ne.jp",
       "a7.ebs_over_gw_u.Todo", "a7.violation_i_pct.Goo.ne.jp.EBS",
       "a7.violation_i_pct.Goo.ne.jp.GreenWeb-I", "a7.ebs_of_gw_i_pct.MSN",
       "a7.ebs_of_gw_i_pct.CamanJS", "a7.ebs_of_gw_i_pct.Todo"},
      {{"a7.gw_u_below_ebs", {"*"}},
       {"a7.ebs_violation_i_above_gw_i", {"Goo.ne.jp"}}}}},
};

/// Expects \p Claim's quotes in \p Text and its orderings in \p Scalars.
void expectDesignClaim(const std::string &Claim, const std::string &Text,
                       const std::map<std::string, double> &Scalars) {
  auto It = DesignClaims.find(Claim);
  ASSERT_NE(It, DesignClaims.end()) << "nothing pinned for " << Claim;
  expectQuotes(Claim, Text, It->second.Quoted, Scalars);
  for (const auto &[Family, Where] : It->second.Holds) {
    size_t Members = 0;
    for (auto S = Scalars.lower_bound(Family + ".");
         S != Scalars.end() && startsWith(S->first, Family + "."); ++S) {
      std::string Member = S->first.substr(Family.size() + 1);
      bool Stated = Where == std::vector<std::string>{"*"} ||
                    std::find(Where.begin(), Where.end(), Member) !=
                        Where.end();
      EXPECT_EQ(S->second, Stated ? 1.0 : 0.0)
          << Claim << " states " << Family << (Stated ? "" : " not")
          << " for " << Member;
      ++Members;
    }
    EXPECT_GT(Members, 0u) << "no scalar family " << Family;
  }
}

} // namespace

TEST(ExperimentsSummaryTest, MeasuredCellsMatchTheCommittedPaperSuite) {
  std::map<std::string, double> Scalars =
      scalars("docs/reports/paper_suite.json");
  std::vector<std::pair<std::string, std::string>> Rows = tableRows(
      readSource("EXPERIMENTS.md"), "## Summary of headline results",
      "Measured");
  ASSERT_FALSE(Rows.empty()) << "no summary table in EXPERIMENTS.md";
  size_t Checked = 0;
  for (const auto &[Claim, Measured] : Rows) {
    if (numbers(Measured).empty())
      continue;
    auto It = Quoted.find(Claim);
    ASSERT_NE(It, Quoted.end()) << "no scalar pinned for '" << Claim << "'";
    expectQuotes(Claim, Measured, It->second, Scalars);
    ++Checked;
  }
  EXPECT_EQ(Checked, Quoted.size());
}

TEST(ExperimentsSummaryTest, DesignClaimsMatchTheCommittedDesignSuite) {
  std::map<std::string, double> Scalars =
      scalars("docs/reports/design_suite.json");
  std::string Markdown = readSource("EXPERIMENTS.md");

  // The AUTOGREEN section's "Measured:" paragraph.
  size_t Section = Markdown.find("### Sec. 5 — AUTOGREEN");
  ASSERT_NE(Section, std::string::npos) << "no AUTOGREEN section";
  size_t Begin = Markdown.find("Measured:", Section);
  ASSERT_NE(Begin, std::string::npos) << "no AUTOGREEN Measured paragraph";
  std::string Paragraph =
      Markdown.substr(Begin, Markdown.find("\n\n", Begin) - Begin);
  expectDesignClaim("AUTOGREEN", Paragraph, Scalars);

  std::vector<std::pair<std::string, std::string>> Rows =
      tableRows(Markdown, "### Ablations", "Result");
  for (const auto &[Id, Result] : Rows)
    expectDesignClaim(Id.substr(0, Id.find(' ')), Result, Scalars);
  EXPECT_EQ(Rows.size() + 1, DesignClaims.size())
      << "every pinned claim has its row";
}
