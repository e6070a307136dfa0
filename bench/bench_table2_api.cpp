//===- bench/bench_table2_api.cpp - Table 2 -------------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Regenerates Table 2: the GreenWeb API forms. Each row's syntax is
// parsed through the real CSS front end and lowered through the real
// semantics (Table 1 defaults), and the resulting runtime meaning is
// printed. A malformed-declarations section demonstrates the grammar's
// error handling.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "css/CssParser.h"
#include "css/StyleResolver.h"
#include "dom/Dom.h"
#include "greenweb/Qos.h"

using namespace greenweb;

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_table2_api", Argc, Argv);
  bench::banner("Table 2: GreenWeb API specification",
                "Each API is a new CSS rule specifying QoS information "
                "(Sec. 4.1, Fig. 3 grammar)");

  struct Row {
    const char *Css;
    const char *PaperSemantics;
  };
  const Row Rows[] = {
      {"div#e:QoS { ontouchstart-qos: continuous; }",
       "continuously optimize frame latency; Table 1 defaults"},
      {"div#e:QoS { onclick-qos: single, short; }",
       "optimize the single response frame; short expectation"},
      {"div#e:QoS { onclick-qos: single, long; }",
       "optimize the single response frame; long expectation"},
      {"div#e:QoS { ontouchmove-qos: continuous, 20, 100; }",
       "explicit TI/TU override (Fig. 5 example)"},
      {"div#e:QoS { onclick-qos: single, 1000, 10000; }",
       "explicit TI/TU on a single event"},
  };

  Document Doc;
  Element *E = Doc.root().createChild("div");
  E->setId("e");

  TablePrinter Table;
  Table.row().cell("Syntax").cell("Parsed semantics").cell("Paper row");
  for (const Row &R : Rows) {
    css::Stylesheet Sheet = css::parseStylesheet(R.Css);
    css::StyleResolver Resolver(Sheet);
    std::vector<css::QosAnnotation> Anns = Resolver.qosAnnotationsFor(*E);
    std::string Meaning = "<parse failed>";
    if (Anns.size() == 1) {
      QosSpec Spec = lowerQosValue(Anns[0].Value);
      Meaning = formatString("on %s: %s", Anns[0].EventName.c_str(),
                             Spec.str().c_str());
    }
    Table.row().cell(R.Css).cell(Meaning).cell(R.PaperSemantics);
  }
  Table.print();
  Run.Json.table("Table", Table);

  std::printf("\nMalformed declarations (grammar enforcement: TI and TU "
              "must appear together, etc.):\n");
  const char *Bad[] = {
      "div#e:QoS { onclick-qos: continuous, 20; }",
      "div#e:QoS { onclick-qos: sometimes; }",
      "div#e { onclick-qos: single, short; }", // missing :QoS qualifier
  };
  for (const char *Css : Bad) {
    css::Stylesheet Sheet = css::parseStylesheet(Css);
    css::StyleResolver Resolver(Sheet);
    std::vector<std::string> Diags;
    Resolver.qosAnnotationsFor(*E, &Diags);
    std::printf("  %-52s -> %s\n", Css,
                Diags.empty() ? "accepted (?)" : Diags[0].c_str());
  }
  return 0;
}
