//===- tests/workloads/TelemetryArtifactsTest.cpp - driver flag tests -----===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/TelemetryArtifacts.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace greenweb;

namespace {

/// Runs parseArgs over \p Args (argv[0] is prepended).
bool parse(TelemetryArtifactOptions &O, std::vector<std::string> Args,
           const ArgHandler &Own = nullptr) {
  Args.insert(Args.begin(), "driver");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  return O.parseArgs(int(Argv.size()), Argv.data(), Own);
}

TEST(TelemetryArtifactsTest, SharedFlagsAndDriverFlagsParseTogether) {
  TelemetryArtifactOptions O;
  unsigned Jobs = 1;
  std::vector<std::string> Positional;
  auto Own = [&](std::string_view Arg) {
    if (auto V = flagValue(Arg, "--jobs="))
      return countArg(*V, Jobs);
    if (startsWith(Arg, "--"))
      return ArgMatch::Unknown;
    Positional.emplace_back(Arg);
    return ArgMatch::Taken;
  };
  ASSERT_TRUE(parse(O,
                    {"Cnet", "--metrics=m.json", "--jobs=3", "--alerts",
                     "--sched=s.json", "--progress", "--log=e.jsonl"},
                    Own));
  EXPECT_EQ(O.MetricsPath, "m.json");
  EXPECT_EQ(O.LogPath, "e.jsonl");
  EXPECT_EQ(O.SchedPath, "s.json");
  EXPECT_TRUE(O.Alerts);
  EXPECT_TRUE(O.Progress);
  EXPECT_FALSE(O.Prof);
  EXPECT_EQ(Jobs, 3u);
  EXPECT_EQ(Positional, std::vector<std::string>{"Cnet"});
  EXPECT_EQ(O.CommandLine, "driver Cnet --metrics=m.json --jobs=3 --alerts "
                           "--sched=s.json --progress --log=e.jsonl");
}

TEST(TelemetryArtifactsTest, MalformedAndUnknownArgumentsAreRefused) {
  auto Own = [](std::string_view Arg) {
    unsigned Jobs = 0;
    if (auto V = flagValue(Arg, "--jobs="))
      return countArg(*V, Jobs);
    return ArgMatch::Unknown;
  };
  for (std::vector<std::string> Bad :
       {std::vector<std::string>{"--prof-sample=abc"},
        {"--prof-sample=-5"},
        {"--jobs=abc"},
        {"--jobs=-1"},
        {"--bogus"},
        {"positional"}}) {
    TelemetryArtifactOptions O;
    EXPECT_FALSE(parse(O, Bad, Own)) << Bad[0];
    // Nothing was started or recorded for a refused command line.
    EXPECT_TRUE(O.CommandLine.empty()) << Bad[0];
  }
  // Without a driver handler every non-shared argument is unknown.
  TelemetryArtifactOptions O;
  EXPECT_FALSE(parse(O, {"--jobs=2"}));
}

} // namespace
