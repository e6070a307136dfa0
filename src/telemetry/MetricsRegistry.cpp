//===- telemetry/MetricsRegistry.cpp - Named metric registry ---------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/MetricsRegistry.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace greenweb;

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

Counter &MetricsRegistry::counter(std::string_view Name) {
  auto It = Counters.find(Name);
  if (It != Counters.end())
    return It->second;
  return Counters.emplace(std::string(Name), Counter()).first->second;
}

Gauge &MetricsRegistry::gauge(std::string_view Name) {
  auto It = Gauges.find(Name);
  if (It != Gauges.end())
    return It->second;
  return Gauges.emplace(std::string(Name), Gauge()).first->second;
}

Histogram &MetricsRegistry::histogram(std::string_view Name) {
  auto It = Histograms.find(Name);
  if (It != Histograms.end())
    return It->second;
  return Histograms.emplace(std::string(Name), Histogram()).first->second;
}

void MetricsRegistry::markVolatile(std::string_view Name) {
  if (!isVolatile(Name))
    VolatileNames.emplace_back(Name);
}

bool MetricsRegistry::isVolatile(std::string_view Name) const {
  return std::find(VolatileNames.begin(), VolatileNames.end(), Name) !=
         VolatileNames.end();
}

bool MetricsRegistry::has(std::string_view Name) const {
  return Counters.find(Name) != Counters.end() ||
         Gauges.find(Name) != Gauges.end() ||
         Histograms.find(Name) != Histograms.end();
}

const Counter *MetricsRegistry::findCounter(std::string_view Name) const {
  auto It = Counters.find(Name);
  return It != Counters.end() ? &It->second : nullptr;
}

const Gauge *MetricsRegistry::findGauge(std::string_view Name) const {
  auto It = Gauges.find(Name);
  return It != Gauges.end() ? &It->second : nullptr;
}

const Histogram *
MetricsRegistry::findHistogram(std::string_view Name) const {
  auto It = Histograms.find(Name);
  return It != Histograms.end() ? &It->second : nullptr;
}

void MetricsRegistry::mergeFrom(const MetricsRegistry &O) {
  for (const auto &[Name, C] : O.Counters)
    counter(Name).add(C.value());
  for (const auto &[Name, G] : O.Gauges)
    gauge(Name).set(G.value());
  for (const auto &[Name, H] : O.Histograms)
    histogram(Name).mergeFrom(H);
  for (const std::string &Name : O.VolatileNames)
    markVolatile(Name);
}

size_t MetricsRegistry::size() const {
  return Counters.size() + Gauges.size() + Histograms.size();
}

void MetricsRegistry::clear() {
  Counters.clear();
  Gauges.clear();
  Histograms.clear();
  VolatileNames.clear();
}

namespace {

/// Formats a double compactly but deterministically: %.6f with trailing
/// zeros trimmed (always keeping one digit after the point), so snapshots
/// are stable across runs and readable for humans.
std::string formatNumber(double X) {
  std::string S;
  appendTrimmedFixed6(S, X);
  return S;
}

} // namespace

std::string MetricsRegistry::snapshotJson(bool IncludeVolatile) const {
  std::string Out = "{\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, C] : Counters) {
    if (!IncludeVolatile && isVolatile(Name))
      continue;
    Out += formatString("%s\n    \"%s\": %llu", First ? "" : ",",
                        Name.c_str(),
                        static_cast<unsigned long long>(C.value()));
    First = false;
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"gauges\": {";
  First = true;
  for (const auto &[Name, G] : Gauges) {
    if (!IncludeVolatile && isVolatile(Name))
      continue;
    Out += formatString("%s\n    \"%s\": %s", First ? "" : ",",
                        Name.c_str(), formatNumber(G.value()).c_str());
    First = false;
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    if (!IncludeVolatile && isVolatile(Name))
      continue;
    const RunningStat &S = H.summary();
    Out += formatString(
        "%s\n    \"%s\": {\"count\": %llu, \"mean\": %s, \"stddev\": %s, "
        "\"min\": %s, \"max\": %s, \"p50\": %s, \"p90\": %s, \"p95\": %s, "
        "\"p99\": %s}",
        First ? "" : ",", Name.c_str(),
        static_cast<unsigned long long>(S.count()),
        formatNumber(S.mean()).c_str(), formatNumber(S.stddev()).c_str(),
        formatNumber(S.min()).c_str(), formatNumber(S.max()).c_str(),
        formatNumber(H.quantile(0.50)).c_str(),
        formatNumber(H.quantile(0.90)).c_str(),
        formatNumber(H.quantile(0.95)).c_str(),
        formatNumber(H.quantile(0.99)).c_str());
    First = false;
  }
  Out += First ? "}\n}\n" : "\n  }\n}\n";
  return Out;
}

std::string MetricsRegistry::snapshotCsv(bool IncludeVolatile) const {
  std::string Out = "metric,kind,field,value\n";
  for (const auto &[Name, C] : Counters) {
    if (!IncludeVolatile && isVolatile(Name))
      continue;
    Out += formatString("%s,counter,value,%llu\n", Name.c_str(),
                        static_cast<unsigned long long>(C.value()));
  }
  for (const auto &[Name, G] : Gauges) {
    if (!IncludeVolatile && isVolatile(Name))
      continue;
    Out += formatString("%s,gauge,value,%s\n", Name.c_str(),
                        formatNumber(G.value()).c_str());
  }
  for (const auto &[Name, H] : Histograms) {
    if (!IncludeVolatile && isVolatile(Name))
      continue;
    const RunningStat &S = H.summary();
    Out += formatString("%s,histogram,count,%llu\n", Name.c_str(),
                        static_cast<unsigned long long>(S.count()));
    Out += formatString("%s,histogram,mean,%s\n", Name.c_str(),
                        formatNumber(S.mean()).c_str());
    Out += formatString("%s,histogram,stddev,%s\n", Name.c_str(),
                        formatNumber(S.stddev()).c_str());
    Out += formatString("%s,histogram,min,%s\n", Name.c_str(),
                        formatNumber(S.min()).c_str());
    Out += formatString("%s,histogram,max,%s\n", Name.c_str(),
                        formatNumber(S.max()).c_str());
    Out += formatString("%s,histogram,p50,%s\n", Name.c_str(),
                        formatNumber(H.quantile(0.50)).c_str());
    Out += formatString("%s,histogram,p90,%s\n", Name.c_str(),
                        formatNumber(H.quantile(0.90)).c_str());
    Out += formatString("%s,histogram,p95,%s\n", Name.c_str(),
                        formatNumber(H.quantile(0.95)).c_str());
    Out += formatString("%s,histogram,p99,%s\n", Name.c_str(),
                        formatNumber(H.quantile(0.99)).c_str());
  }
  return Out;
}
