//===- tests/greenweb/PredictiveGovernorTest.cpp - learned governor tests ------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "greenweb/PredictiveGovernor.h"

#include "browser/Browser.h"
#include "greenweb/Governors.h"
#include "hw/EnergyMeter.h"

#include <gtest/gtest.h>

#include <fstream>

using namespace greenweb;

namespace {

const char *TestPage = R"raw(
  <button id="job" onclick="runJob()">job</button>
  <style>
    #job:QoS { onclick-qos: single, long; }
    html:QoS { onload-qos: single, long; }
  </style>
  <script>
    function runJob() {
      performWork(300000);
      document.getElementById('job').style.r = now();
    }
  </script>
)raw";

class PredictiveFixture : public ::testing::Test {
protected:
  PredictiveFixture() : Chip(Sim), Meter(Chip), B(Sim, Chip) {}

  /// Attaches a predictive governor with the given options and loads the
  /// test page.
  PredictiveGovernor &start(PredictiveGovernor::Options O) {
    RT = std::make_unique<PredictiveGovernor>(Registry, Params, std::move(O));
    RT->setEnergyMeter(&Meter);
    B.OnPageParsed = [this] { Registry.loadFromPage(B); };
    RT->attach(B);
    EXPECT_NE(B.loadPage(TestPage), 0u);
    Sim.runUntil(Sim.now() + Duration::seconds(2));
    EXPECT_TRUE(B.ScriptErrors.empty());
    return *RT;
  }

  void settle(Duration D) { Sim.runUntil(Sim.now() + D); }

  /// Loads \p Path through the model loader and starts the governor the
  /// way runExperiment does: with the model when it loads, without one
  /// (the LTM fallback) when it does not. The loader's diagnostic is
  /// kept in LoadError.
  PredictiveGovernor &startLoaded(const std::string &Path) {
    PredictiveGovernor::Options O;
    if (DecisionTreeModel::loadFile(Path, Loaded, &LoadError))
      O.Model = &Loaded;
    return start(O);
  }

  PredictiveGovernor &startShared(const DecisionTreeModel &M,
                                  double Threshold = 0.6) {
    PredictiveGovernor::Options O;
    O.Model = &M;
    O.ConfidenceThreshold = Threshold;
    return start(std::move(O));
  }

  /// A single-leaf model matching this chip's ladder: every query
  /// answers the same level with the given vote share.
  DecisionTreeModel leafModel(double Confidence) {
    DecisionTreeModel M;
    M.LadderLevels = buildConfigLadder(Chip).size();
    M.MaxDepth = 1;
    M.MinSamplesLeaf = 1;
    M.TrainedRows = 10;
    TreeNode Leaf;
    Leaf.Feature = -1;
    Leaf.Leaf = int(M.LadderLevels) - 1; // top of the ladder: never violates
    Leaf.Confidence = Confidence;
    Leaf.Count = 10;
    M.Nodes.push_back(Leaf);
    return M;
  }

  Simulator Sim;
  AcmpChip Chip;
  EnergyMeter Meter;
  Browser B;
  AnnotationRegistry Registry;
  GreenWebRuntime::Params Params;
  DecisionTreeModel Loaded;
  std::string LoadError;
  std::unique_ptr<PredictiveGovernor> RT;
};

} // namespace

TEST_F(PredictiveFixture, NullModelFallsBackToLtm) {
  PredictiveGovernor &G = start({});
  EXPECT_EQ(G.modelError(), "no model configured");
  EXPECT_FALSE(G.predictiveStats().ModelLoaded);
  // The run proceeds exactly like the LTM baseline: profile at max,
  // never consult the model.
  B.dispatchInput("click", "job");
  EXPECT_EQ(Chip.config(), Chip.spec().maxConfig());
  settle(Duration::seconds(3));
  EXPECT_EQ(G.predictiveStats().ModelPredictions, 0u);
  EXPECT_GE(G.stats().ProfilingFrames, 1u);
}

TEST_F(PredictiveFixture, MissingModelFileFallsBackToLtm) {
  PredictiveGovernor &G = startLoaded("/nonexistent/predictive.json");
  EXPECT_NE(LoadError.find("cannot read /nonexistent/predictive.json"),
            std::string::npos)
      << LoadError;
  EXPECT_FALSE(G.predictiveStats().ModelLoaded);
  B.dispatchInput("click", "job");
  settle(Duration::seconds(3));
  EXPECT_EQ(G.predictiveStats().ModelPredictions, 0u);
  EXPECT_GE(G.stats().ProfilingFrames, 1u);
}

TEST_F(PredictiveFixture, CorruptModelFileFallsBackToLtm) {
  std::string Path = ::testing::TempDir() + "/gw_corrupt_model.json";
  std::ofstream(Path) << "{\"kind\": \"decision_tree\", truncated garbage";
  PredictiveGovernor &G = startLoaded(Path);
  EXPECT_EQ(LoadError.rfind(Path + ": ", 0), 0u) << LoadError;
  EXPECT_FALSE(G.predictiveStats().ModelLoaded);
  B.dispatchInput("click", "job");
  settle(Duration::seconds(3));
  EXPECT_EQ(G.predictiveStats().ModelPredictions, 0u);
}

TEST_F(PredictiveFixture, WrongSchemaDocumentFallsBackToLtm) {
  std::string Path = ::testing::TempDir() + "/gw_wrong_schema.json";
  std::ofstream(Path) << "{\"kind\": \"something_else\", \"nodes\": []}";
  PredictiveGovernor &G = startLoaded(Path);
  EXPECT_EQ(LoadError.rfind(Path + ": ", 0), 0u) << LoadError;
  EXPECT_NE(LoadError.find("kind"), std::string::npos) << LoadError;
  B.dispatchInput("click", "job");
  settle(Duration::seconds(3));
  EXPECT_EQ(G.predictiveStats().ModelPredictions, 0u);
}

TEST_F(PredictiveFixture, UntrainedSharedModelRejected) {
  DecisionTreeModel Empty;
  PredictiveGovernor::Options O;
  O.Model = &Empty;
  PredictiveGovernor G(Registry, Params, O);
  EXPECT_FALSE(G.modelError().empty());
}

TEST_F(PredictiveFixture, LadderMismatchRejectedAtAttach) {
  DecisionTreeModel M = leafModel(1.0);
  M.LadderLevels += 3; // trained against some other chip's ladder
  PredictiveGovernor &G = startShared(M);
  EXPECT_FALSE(G.modelError().empty());
  EXPECT_NE(G.modelError().find("ladder"), std::string::npos);
  EXPECT_FALSE(G.predictiveStats().ModelLoaded);
  B.dispatchInput("click", "job");
  settle(Duration::seconds(3));
  EXPECT_EQ(G.predictiveStats().ModelPredictions, 0u);
}

TEST_F(PredictiveFixture, ConfidenceAtThresholdUsesModel) {
  // A prediction at exactly the threshold is used (>= semantics).
  DecisionTreeModel M = leafModel(0.6);
  PredictiveGovernor &G = startShared(M, 0.6);
  EXPECT_TRUE(G.modelError().empty());
  EXPECT_TRUE(G.predictiveStats().ModelLoaded);
  B.dispatchInput("click", "job");
  settle(Duration::seconds(3));
  EXPECT_GT(G.predictiveStats().ModelPredictions, 0u);
  EXPECT_EQ(G.predictiveStats().LowConfidenceFallbacks, 0u);
}

TEST_F(PredictiveFixture, ConfidenceBelowThresholdFallsBack) {
  DecisionTreeModel M = leafModel(0.59);
  PredictiveGovernor &G = startShared(M, 0.6);
  B.dispatchInput("click", "job");
  settle(Duration::seconds(3));
  EXPECT_EQ(G.predictiveStats().ModelPredictions, 0u);
  EXPECT_GT(G.predictiveStats().LowConfidenceFallbacks, 0u);
}

TEST_F(PredictiveFixture, ColdStartDeclinesBeforeFirstFrame) {
  // attach() resets the extractor; the page-load frames rebuild its
  // history, so the load event's own first decision is the cold start.
  DecisionTreeModel M = leafModel(1.0);
  PredictiveGovernor &G = startShared(M);
  EXPECT_GE(G.predictiveStats().ColdStartFallbacks, 1u);
  // Later decisions have history and go to the model.
  B.dispatchInput("click", "job");
  settle(Duration::seconds(3));
  EXPECT_GT(G.predictiveStats().ModelPredictions, 0u);
}

TEST_F(PredictiveFixture, NameReflectsScenario) {
  Params.Scenario = UsageScenario::Imperceptible;
  EXPECT_EQ(PredictiveGovernor(Registry, Params, {}).name(), "Predictive-I");
  Params.Scenario = UsageScenario::Usable;
  EXPECT_EQ(PredictiveGovernor(Registry, Params, {}).name(), "Predictive-U");
}
