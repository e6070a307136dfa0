//===- tools/gw_train.cpp - offline decision-tree trainer -----------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// gw-train turns a fleet-exported feature table (gw-fleet --features=)
// into the model JSON the PredictiveGovernor loads:
//
//   gw-train --features=fleet_features.jsonl --out=model.json
//
// Flags:
//   --features=FILE    labeled feature table (required)
//   --out=FILE         model JSON output (required)
//   --max-depth=N      CART depth limit (default 8)
//   --min-leaf=N       minimum rows per leaf (default 4)
//   --stats            print per-label counts and training accuracy
//
// Training is byte-deterministic: rows are canonically sorted before
// the split search (so a shuffled input file yields the identical
// model), every tie in the Gini sweep breaks by fixed rules, and the
// model serializes with fixed key order and %.17g floats. CI trains
// twice and `cmp`s the outputs.
//
//===----------------------------------------------------------------------===//

#include "greenweb/Features.h"
#include "support/FileIo.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

using namespace greenweb;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --features=FILE --out=FILE [--max-depth=N] "
               "[--min-leaf=N] [--stats]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string FeaturesPath, OutPath;
  TrainOptions Opts;
  bool Stats = false;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    ArgMatch M = ArgMatch::Taken;
    if (auto V = flagValue(Arg, "--features="))
      FeaturesPath = *V;
    else if (auto V = flagValue(Arg, "--out="))
      OutPath = *V;
    else if (auto V = flagValue(Arg, "--max-depth="))
      M = countArg(*V, Opts.MaxDepth);
    else if (auto V = flagValue(Arg, "--min-leaf="))
      M = countArg(*V, Opts.MinSamplesLeaf);
    else if (Arg == "--stats")
      Stats = true;
    else
      M = ArgMatch::Unknown;
    if (!acceptArg(M, Arg))
      return usage(Argv[0]);
  }
  if (FeaturesPath.empty() || OutPath.empty()) {
    std::fprintf(stderr, "error: --features= and --out= are required\n");
    return usage(Argv[0]);
  }
  if (Opts.MaxDepth == 0 || Opts.MinSamplesLeaf == 0) {
    std::fprintf(stderr,
                 "error: --max-depth and --min-leaf must be positive\n");
    return usage(Argv[0]);
  }

  std::string Text, Error;
  if (!readFile(FeaturesPath, Text, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return usage(Argv[0]);
  }
  FeatureTable Table;
  if (!FeatureTable::parse(Text, Table, &Error)) {
    std::fprintf(stderr, "error: %s: %s\n", FeaturesPath.c_str(),
                 Error.c_str());
    return usage(Argv[0]);
  }
  if (Table.Rows.empty()) {
    std::fprintf(stderr, "error: %s holds no feature rows\n",
                 FeaturesPath.c_str());
    return usage(Argv[0]);
  }

  DecisionTreeModel Model =
      trainDecisionTree(Table.Rows, Table.LadderLevels, Opts);

  std::fprintf(stderr,
               "trained on %llu rows (%zu ladder levels): %zu nodes, "
               "depth limit %u, min leaf %u\n",
               static_cast<unsigned long long>(Model.TrainedRows),
               Model.LadderLevels, Model.Nodes.size(), Model.MaxDepth,
               Model.MinSamplesLeaf);
  if (Stats) {
    std::vector<uint64_t> Counts(Table.LadderLevels, 0);
    uint64_t Correct = 0;
    for (const FeatureRow &Row : Table.Rows) {
      ++Counts[size_t(Row.Label)];
      if (Model.predict(Row.F).Level == Row.Label)
        ++Correct;
    }
    for (size_t L = 0; L < Counts.size(); ++L)
      if (Counts[L])
        std::fprintf(stderr, "  level %2zu: %llu rows\n", L,
                     static_cast<unsigned long long>(Counts[L]));
    std::fprintf(stderr, "  training accuracy: %.1f%%\n",
                 100.0 * double(Correct) / double(Table.Rows.size()));
  }

  if (!writeFile(OutPath, Model.toJson() + "\n", &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote model to %s\n", OutPath.c_str());
  return 0;
}
