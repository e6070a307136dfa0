//===- perfbench/Metrics.cpp - Benchmark metrics and output checks --------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Metrics.h"

#include "profiling/RunMeta.h"
#include "support/StringUtils.h"
#include "telemetry/FleetReport.h"
#include "workloads/Experiment.h"

#include <stdexcept>
#include <sys/resource.h>

using namespace greenweb;
using namespace greenweb::perfbench;

void MetricSet::add(const std::string &Name, double Value,
                    const std::string &Unit, std::vector<double> Samples) {
  if (find(Name))
    throw std::invalid_argument("duplicate metric name '" + Name + "'");
  Metrics.push_back({Name, Value, Unit, std::move(Samples)});
}

const Metric *MetricSet::find(std::string_view Name) const {
  for (const Metric &M : Metrics)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

void Outcome::fail(std::string Why) {
  ++Failed;
  if (Reasons.size() < 8)
    Reasons.push_back(std::move(Why));
}

uint64_t perfbench::resultDigest(const ExperimentResult &R) {
  std::string Canon = formatString(
      "%s|%s|%d|%llu|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%llu|%llu|%llu|"
      "%llu|%llu|%llu|%zu",
      R.App.c_str(), R.Governor.c_str(), int(R.Mode),
      static_cast<unsigned long long>(R.Seed), R.TotalJoules, R.BigJoules,
      R.LittleJoules, R.MeasuredSeconds, R.ViolationPctImperceptible,
      R.ViolationPctUsable, static_cast<unsigned long long>(R.InputEvents),
      static_cast<unsigned long long>(R.AnnotatedEvents),
      static_cast<unsigned long long>(R.Frames),
      static_cast<unsigned long long>(R.InputEventsCoalesced),
      static_cast<unsigned long long>(R.FreqSwitches),
      static_cast<unsigned long long>(R.Migrations), R.ScriptErrors.size());
  return fleetHash(Canon);
}

bool DigestBook::check(size_t Op, uint64_t Digest, Outcome &Out,
                       const std::string &Label) {
  if (Op >= First.size()) {
    First.resize(Op + 1, 0);
    Seen.resize(Op + 1, false);
  }
  if (!Seen[Op]) {
    Seen[Op] = true;
    First[Op] = Digest;
    return true;
  }
  if (Digest == First[Op])
    return true;
  Out.fail(formatString("%s: digest %016llx differs from first repetition "
                        "%016llx",
                        Label.c_str(), static_cast<unsigned long long>(Digest),
                        static_cast<unsigned long long>(First[Op])));
  return false;
}

uint64_t DigestBook::combined() const {
  std::string Canon;
  for (uint64_t D : First)
    Canon += formatString("%016llx", static_cast<unsigned long long>(D));
  return fleetHash(Canon);
}

double perfbench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // Linux reports KiB.
}

std::vector<double> perfbench::strided(const std::vector<double> &Samples,
                                       size_t Cap) {
  if (Samples.size() <= Cap)
    return Samples;
  std::vector<double> Out;
  Out.reserve(Cap);
  for (size_t I = 0; I < Cap; ++I)
    Out.push_back(Samples[I * Samples.size() / Cap]);
  return Out;
}

static std::string number(double V) { return formatString("%.17g", V); }

std::string perfbench::resultJson(const std::string &Workload, uint64_t Seed,
                                  bool Traced, unsigned Jobs, unsigned Nproc,
                                  const std::string &CommandLine,
                                  const MetricSet &M, const Outcome &O) {
  std::string Out = "{\n  \"harness\": \"gw-perfbench\",\n  \"meta\": " +
                    prof::RunMeta::current(CommandLine).toJsonObject();
  Out += formatString(",\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
                      "  \"trace\": %d,\n",
                      jsonEscape(Workload).c_str(),
                      static_cast<unsigned long long>(Seed), Traced ? 1 : 0);
  Out += formatString("  \"env\": {\"jobs\": %u, \"nproc\": %u},\n", Jobs,
                      Nproc);
  Out += formatString("  \"outcome\": {\"correct\": %s, \"attempted\": %llu, "
                      "\"failed\": %llu, \"reasons\": [",
                      O.Failed == 0 ? "true" : "false",
                      static_cast<unsigned long long>(O.Attempted),
                      static_cast<unsigned long long>(O.Failed));
  for (size_t I = 0; I < O.Reasons.size(); ++I)
    Out += (I ? ", \"" : "\"") + jsonEscape(O.Reasons[I]) + "\"";
  Out += "]},\n  \"scalars\": [\n";
  const std::vector<Metric> &All = M.all();
  for (size_t I = 0; I < All.size(); ++I) {
    const Metric &X = All[I];
    Out += "    {\"name\": \"" + X.Name + "\", \"value\": " + number(X.Value) +
           ", \"unit\": \"" + jsonEscape(X.Unit) + "\"";
    if (!X.Samples.empty()) {
      Out += ", \"samples\": [";
      for (size_t S = 0; S < X.Samples.size(); ++S)
        Out += (S ? ", " : "") + number(X.Samples[S]);
      Out += "]";
    }
    Out += I + 1 < All.size() ? "},\n" : "}\n";
  }
  return Out + "  ]\n}\n";
}
