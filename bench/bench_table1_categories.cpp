//===- bench/bench_table1_categories.cpp - Table 1 ------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Regenerates Table 1: the three QoS categories (QoS type x QoS target)
// that mobile Web interactions fall into, straight from the library's
// default-target constants, plus the LTM interactions that produce each
// category as observed in the twelve app models.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "greenweb/Qos.h"
#include "workloads/Apps.h"

using namespace greenweb;

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_table1_categories", Argc, Argv);
  bench::banner("Table 1: QoS categories",
                "Interactions fall into three categories by QoS type and "
                "target (Sec. 3.3)");

  // Which LTM interactions produce each category, from the app models.
  std::map<std::string, std::string> Interactions;
  for (const std::string &Name : allAppNames()) {
    AppDefinition App = makeApp(Name, 1);
    std::string Key =
        formatString("%s|%lld", qosTypeName(App.MicroType),
                     static_cast<long long>(
                         App.MicroTarget.Imperceptible.nanos()));
    const char *Tag = App.MicroInteraction == InteractionKind::Loading ? "L"
                      : App.MicroInteraction == InteractionKind::Tapping
                          ? "T"
                          : "M";
    std::string &Slot = Interactions[Key];
    if (Slot.find(Tag) == std::string::npos) {
      if (!Slot.empty())
        Slot += ", ";
      Slot += Tag;
    }
  }
  auto interactionsFor = [&](QosType Type, QosTarget Target) {
    auto It = Interactions.find(formatString(
        "%s|%lld", qosTypeName(Type),
        static_cast<long long>(Target.Imperceptible.nanos())));
    return It == Interactions.end() ? std::string("-") : It->second;
  };

  TablePrinter Table;
  Table.row()
      .cell("QoS Type")
      .cell("QoS Target (TI, TU)")
      .cell("Description")
      .cell("Interaction");
  QosTarget Continuous = defaultContinuousTarget();
  Table.row()
      .cell("Continuous")
      .cell(formatString("(%.1f, %.1f) ms", Continuous.Imperceptible.millis(),
                         Continuous.Usable.millis()))
      .cell("QoS evaluated by continuous frame latencies")
      .cell(interactionsFor(QosType::Continuous, Continuous) + " (+T)");
  QosTarget Short = defaultSingleShortTarget();
  Table.row()
      .cell("Single")
      .cell(formatString("(%.0f, %.0f) ms", Short.Imperceptible.millis(),
                         Short.Usable.millis()))
      .cell("Single frame latency; short response expected")
      .cell(interactionsFor(QosType::Single, Short));
  QosTarget Long = defaultSingleLongTarget();
  Table.row()
      .cell("Single")
      .cell(formatString("(%.0f, %.0f) s", Long.Imperceptible.secs(),
                         Long.Usable.secs()))
      .cell("Single frame latency; long response expected")
      .cell(interactionsFor(QosType::Single, Long));
  Table.print();
  Run.Json.table("Table", Table);

  std::printf("\nPaper: continuous (16.6, 33.3) ms for T/M; single "
              "(100, 300) ms for T; single (1, 10) s for L/T.\n");
  return 0;
}
