//===- profiling/RunCompare.cpp - Run-comparison engine -------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profiling/RunCompare.h"

#include "support/FileIo.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace greenweb::prof {

namespace {

std::vector<double> samplesFromJson(const json::Value *Arr) {
  std::vector<double> Out;
  if (!Arr || !Arr->isArray())
    return Out;
  for (const json::Value &E : Arr->Arr)
    if (E.isNumber())
      Out.push_back(E.Num);
  return Out;
}

void parseBench(json::Reader &R, const json::Value &Doc, RunSnapshot &Snap) {
  Snap.SourceKind = "bench";
  Snap.Harness = R.string("harness");
  if (const json::Value *Benchmarks = Doc.get("benchmarks");
      Benchmarks && Benchmarks->isArray()) {
    for (const json::Value &B : Benchmarks->Arr) {
      std::string Name = B.stringOr("name", "");
      if (Name.empty())
        continue;
      for (const auto &[Key, Member] : B.Obj) {
        if (Key == "name" || Key == "iterations" || Key == "note" ||
            !Member.isNumber())
          continue;
        MetricSeries S;
        S.Name = Name + "." + Key;
        S.Value = Member.Num;
        if (Key == "ns_per_op")
          S.Samples = samplesFromJson(B.get("samples_ns_per_op"));
        Snap.Metrics.push_back(std::move(S));
      }
    }
  }
  if (const json::Value *Scalars = Doc.get("scalars");
      Scalars && Scalars->isArray()) {
    for (const json::Value &ScV : Scalars->Arr) {
      json::Reader Sc = R.child(ScV, "scalar");
      std::string Name = Sc.string("name");
      if (Name.empty())
        continue;
      MetricSeries S;
      S.Name = Name;
      S.Value = Sc.number("value", 0.0);
      S.Unit = Sc.string("unit");
      S.Samples = samplesFromJson(ScV.get("samples"));
      Snap.Metrics.push_back(std::move(S));
    }
  }
}

void parseMetrics(const json::Value &Doc, RunSnapshot &Snap) {
  Snap.SourceKind = "metrics";
  if (const json::Value *Counters = Doc.get("counters"))
    for (const auto &[Name, V] : Counters->Obj)
      if (V.isNumber())
        Snap.Metrics.push_back({Name, V.Num, "", {}});
  if (const json::Value *Gauges = Doc.get("gauges"))
    for (const auto &[Name, V] : Gauges->Obj)
      if (V.isNumber())
        Snap.Metrics.push_back({Name, V.Num, "", {}});
  if (const json::Value *Hists = Doc.get("histograms"))
    for (const auto &[Name, H] : Hists->Obj) {
      if (!H.isObject())
        continue;
      for (const char *Field : {"count", "mean", "p50", "p95", "p99"})
        if (const json::Value *F = H.get(Field); F && F->isNumber())
          Snap.Metrics.push_back({Name + "." + Field, F->Num, "", {}});
    }
}

bool parseTelemetryJsonl(const std::string &Text, RunSnapshot &Snap,
                         std::string *Error) {
  Snap.SourceKind = "telemetry";
  std::map<std::string, uint64_t> KindCounts;
  std::map<std::string, std::pair<double, uint64_t>> FieldSums;
  for (std::string_view Line : split(Text, '\n')) {
    std::string_view Trimmed = trim(Line);
    if (Trimmed.empty())
      continue;
    std::optional<json::Value> V = json::parse(Trimmed);
    if (!V || !V->isObject())
      continue;
    std::string Kind = V->stringOr("kind", "");
    if (Kind.empty())
      continue;
    if (Kind == "meta") {
      Snap.HasMeta = true;
      if (!RunMeta::fromJson(*V, Snap.Meta, Error))
        return false;
      continue;
    }
    ++KindCounts[Kind];
    for (const auto &[Key, Member] : V->Obj) {
      if (Key == "kind" || Key == "ts_us" || !Member.isNumber())
        continue;
      auto &[Sum, N] = FieldSums[Kind + "." + Key];
      Sum += Member.Num;
      ++N;
    }
  }
  for (const auto &[Kind, Count] : KindCounts)
    Snap.Metrics.push_back(
        {"telemetry." + Kind + ".count", double(Count), "", {}});
  for (const auto &[Name, SumN] : FieldSums)
    if (SumN.second > 0)
      Snap.Metrics.push_back({"telemetry." + Name + ".mean",
                              SumN.first / double(SumN.second),
                              "",
                              {}});
  return true;
}

double normalTwoSidedP(double Z) {
  return std::erfc(std::fabs(Z) / std::sqrt(2.0));
}

} // namespace

const MetricSeries *RunSnapshot::find(std::string_view Name) const {
  for (const MetricSeries &S : Metrics)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

std::optional<RunSnapshot> RunSnapshot::parse(const std::string &Text,
                                              std::string *Error) {
  RunSnapshot Snap;
  std::string_view Trimmed = trim(Text);
  if (Trimmed.empty()) {
    if (Error)
      *Error = "empty input";
    return std::nullopt;
  }

  std::string ParseError;
  std::optional<json::Value> Doc = json::parse(Trimmed, &ParseError);
  // A bench document is recognized by any of its top-level keys, not
  // just "harness": bench JSONs from before the harness field existed
  // still carry "benchmarks"/"scalars" and must compare, not refuse.
  bool IsBench = Doc && Doc->isObject() &&
                 (Doc->get("harness") || Doc->get("benchmarks") ||
                  Doc->get("scalars"));
  if (Doc && Doc->isObject() && (IsBench || Doc->get("counters"))) {
    json::Reader R(*Doc, IsBench ? "bench document" : "metrics snapshot");
    std::string MetaError;
    if (const json::Value *Meta = Doc->get("meta");
        Meta && Meta->isObject()) {
      Snap.HasMeta = true;
      if (!RunMeta::fromJson(*Meta, Snap.Meta, &MetaError))
        R.fail(MetaError);
    }
    if (IsBench)
      parseBench(R, *Doc, Snap);
    else
      parseMetrics(*Doc, Snap);
    if (!R.finish(Error))
      return std::nullopt;
  } else {
    // Not a single recognized document: treat as a telemetry JSONL log.
    if (!parseTelemetryJsonl(Text, Snap, Error))
      return std::nullopt;
    if (Snap.Metrics.empty() && !Snap.HasMeta) {
      if (Error) {
        *Error = "unrecognized artifact (not bench JSON, metrics "
                 "snapshot, or telemetry JSONL)";
        if (!Doc)
          *Error += "; as one JSON document: " + ParseError;
      }
      return std::nullopt;
    }
  }

  std::sort(Snap.Metrics.begin(), Snap.Metrics.end(),
            [](const MetricSeries &A, const MetricSeries &B) {
              return A.Name < B.Name;
            });
  return Snap;
}

std::optional<RunSnapshot> RunSnapshot::loadFile(const std::string &Path,
                                                 std::string *Error) {
  std::string Text, Err;
  if (!readFile(Path, Text, Error))
    return std::nullopt;
  std::optional<RunSnapshot> Snap = parse(Text, &Err);
  if (!Snap && Error)
    *Error = Path + ": " + Err;
  return Snap;
}

BenchReport::BenchReport(std::string Harness, int SampleDigits,
                         size_t SamplesCap)
    : Harness(std::move(Harness)), SampleDigits(SampleDigits),
      SamplesCap(SamplesCap) {}

void BenchReport::samples(std::string &Out,
                          const std::vector<double> &Values) const {
  json::Writer W(Out);
  W.beginArray();
  size_t Count = SamplesCap > 0 ? std::min(SamplesCap, Values.size())
                                : Values.size();
  for (size_t I = 0; I < Count; ++I)
    W.fixed(Values[I * Values.size() / Count], SampleDigits);
  W.endArray();
}

void BenchReport::metric(std::string_view Name, uint64_t Iterations,
                         double NsPerOp, std::string_view RateLabel,
                         double Rate, std::string_view Note,
                         const std::vector<double> &Samples) {
  std::string &E = Benchmarks.emplace_back("    ");
  json::Writer W(E);
  W.beginObject().key("name").str(Name);
  W.key("iterations").uinteger(Iterations);
  W.key("ns_per_op").fixed(NsPerOp, 3);
  if (!RateLabel.empty())
    W.key(RateLabel).fixed(Rate, 3);
  if (!Note.empty())
    W.key("note").str(Note);
  if (!Samples.empty())
    samples(W.key("samples_ns_per_op").rawValue(), Samples);
  W.endObject();
}

void BenchReport::scalar(std::string_view Name, double Value,
                         std::string_view Unit,
                         const std::vector<double> &Samples,
                         std::string_view Note) {
  std::string &E = Scalars.emplace_back("    ");
  json::Writer W(E);
  W.beginObject().key("name").str(Name).key("value").fixed(Value, 6);
  if (!Unit.empty())
    W.key("unit").str(Unit);
  if (!Note.empty())
    W.key("note").str(Note);
  if (!Samples.empty())
    samples(W.key("samples").rawValue(), Samples);
  W.endObject();
}

void BenchReport::table(std::string_view Name, const TablePrinter &T) {
  std::string &E = Tables.emplace_back("    ");
  json::Writer W(E);
  W.beginObject().key("name").str(Name);
  if (!T.title().empty())
    W.key("title").str(T.title());
  const auto &Rows = T.rows();
  // One row per line, so committed tables diff row by row.
  std::string &Body = W.key("rows").rawValue();
  Body += "[\n";
  for (size_t R = 0; R < Rows.size(); ++R) {
    Body += "      ";
    json::Writer Row(Body);
    Row.beginArray();
    for (const std::string &Cell : Rows[R])
      Row.str(Cell);
    Row.endArray();
    Body += R + 1 < Rows.size() ? ",\n" : "\n";
  }
  Body += "    ]";
  W.endObject();
}

std::string BenchReport::json(const RunMeta &Meta) const {
  std::string Out = "{\n  \"harness\": ";
  json::Writer(Out).str(Harness);
  Out += ",\n  \"meta\": " + Meta.toJsonObject();
  auto Section = [&Out](const char *Key,
                        const std::vector<std::string> &Entries) {
    if (Entries.empty())
      return;
    Out += ",\n  \"";
    Out += Key;
    Out += "\": [\n";
    for (size_t I = 0; I < Entries.size(); ++I)
      Out += Entries[I] + (I + 1 < Entries.size() ? ",\n" : "\n");
    Out += "  ]";
  };
  Section("benchmarks", Benchmarks);
  Section("scalars", Scalars);
  Section("tables", Tables);
  Out += "\n}\n";
  return Out;
}

bool BenchReport::write(const std::string &Path, const RunMeta &Meta) const {
  std::string Error;
  if (!writeFile(Path, json(Meta), &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  return true;
}

Direction metricDirection(std::string_view Name) {
  auto Has = [Name](std::string_view Sub) {
    return Name.find(Sub) != std::string_view::npos;
  };
  // Higher-is-better first: "events_per_sec" must not match the
  // "_seconds" rule below.
  if (Has("per_sec") || Has("speedup") || Has("throughput") ||
      Has("cache_hits") || Has("fps") || Has("efficiency") ||
      Has("utilization"))
    return Direction::HigherIsBetter;
  if (Has("ns_per_op") || Has("_seconds") || Has("latency") ||
      Has("violation") || Has("joules") || Has("penalty") ||
      Has("duration") || Has("dropped") || Has("_ms") || Has("_ns") ||
      Has("fraction"))
    return Direction::LowerIsBetter;
  return Direction::Neutral;
}

const char *verdictName(Verdict V) {
  switch (V) {
  case Verdict::Improved: return "improved";
  case Verdict::Regressed: return "regressed";
  case Verdict::Unchanged: return "unchanged";
  case Verdict::BaselineOnly: return "baseline-only";
  case Verdict::CandidateOnly: return "candidate-only";
  }
  return "?";
}

double mannWhitneyPValue(const std::vector<double> &A,
                         const std::vector<double> &B) {
  size_t N1 = A.size(), N2 = B.size();
  if (N1 < 2 || N2 < 2)
    return 1.0;
  struct Item {
    double V;
    bool FromA;
  };
  std::vector<Item> All;
  All.reserve(N1 + N2);
  for (double V : A)
    All.push_back({V, true});
  for (double V : B)
    All.push_back({V, false});
  std::sort(All.begin(), All.end(),
            [](const Item &X, const Item &Y) { return X.V < Y.V; });

  double R1 = 0.0;     // Rank sum of A (average ranks for ties).
  double TieTerm = 0.0; // Sum of t^3 - t over tie groups.
  size_t I = 0;
  while (I < All.size()) {
    size_t J = I;
    while (J < All.size() && All[J].V == All[I].V)
      ++J;
    double T = double(J - I);
    double AvgRank = (double(I + 1) + double(J)) / 2.0; // 1-based.
    for (size_t K = I; K < J; ++K)
      if (All[K].FromA)
        R1 += AvgRank;
    TieTerm += T * T * T - T;
    I = J;
  }

  double DN1 = double(N1), DN2 = double(N2), N = DN1 + DN2;
  double U1 = R1 - DN1 * (DN1 + 1.0) / 2.0;
  double Mean = DN1 * DN2 / 2.0;
  double Var =
      DN1 * DN2 / 12.0 * ((N + 1.0) - TieTerm / (N * (N - 1.0)));
  if (Var <= 0.0)
    return 1.0; // Every value tied.
  double Z = U1 - Mean;
  Z += Z > 0 ? -0.5 : (Z < 0 ? 0.5 : 0.0); // Continuity correction.
  return normalTwoSidedP(Z / std::sqrt(Var));
}

BootstrapCi bootstrapMeanDeltaCi(const std::vector<double> &Base,
                                 const std::vector<double> &Cand,
                                 uint64_t Iters, uint64_t Seed) {
  BootstrapCi Ci;
  if (Base.size() < 2 || Cand.size() < 2 || Iters == 0)
    return Ci;
  Rng R(Seed);
  auto ResampleMean = [&R](const std::vector<double> &V) {
    double Sum = 0.0;
    for (size_t I = 0; I < V.size(); ++I)
      Sum += V[size_t(R.uniformInt(0, int64_t(V.size()) - 1))];
    return Sum / double(V.size());
  };
  std::vector<double> Deltas;
  Deltas.reserve(Iters);
  for (uint64_t I = 0; I < Iters; ++I) {
    double MB = ResampleMean(Base);
    double MC = ResampleMean(Cand);
    if (std::fabs(MB) < 1e-300)
      continue;
    Deltas.push_back((MC - MB) / std::fabs(MB) * 100.0);
  }
  if (Deltas.size() < 2)
    return Ci;
  std::sort(Deltas.begin(), Deltas.end());
  auto Pct = [&Deltas](double Q) {
    double Rank = Q * double(Deltas.size() - 1);
    size_t Lo = size_t(Rank);
    size_t Hi = std::min(Lo + 1, Deltas.size() - 1);
    double Frac = Rank - double(Lo);
    return Deltas[Lo] * (1.0 - Frac) + Deltas[Hi] * Frac;
  };
  Ci.LoPct = Pct(0.025);
  Ci.HiPct = Pct(0.975);
  return Ci;
}

CompareResult compareRuns(const RunSnapshot &Base, const RunSnapshot &Cand,
                          const CompareOptions &Opts) {
  CompareResult R;

  // --- Metadata gate ---
  if (Base.SourceKind != Cand.SourceKind) {
    R.MetaError = formatString(
        "artifact kinds differ (baseline is %s, candidate is %s)",
        Base.SourceKind.c_str(), Cand.SourceKind.c_str());
    return R;
  }
  if (!Base.Harness.empty() && !Cand.Harness.empty() &&
      Base.Harness != Cand.Harness) {
    R.MetaError =
        formatString("harnesses differ (baseline %s, candidate %s)",
                     Base.Harness.c_str(), Cand.Harness.c_str());
    return R;
  }
  if (Base.HasMeta && Cand.HasMeta) {
    if (Base.Meta.Schema != Cand.Meta.Schema) {
      R.MetaError = formatString(
          "schema versions differ (baseline %d, candidate %d)",
          Base.Meta.Schema, Cand.Meta.Schema);
      return R;
    }
    auto NoteDiff = [&R](const char *What, const std::string &A,
                         const std::string &B) {
      if (A != B)
        R.MetaWarnings.push_back(formatString(
            "%s differs: baseline %s, candidate %s", What, A.c_str(),
            B.c_str()));
    };
    NoteDiff("compiler", Base.Meta.Compiler, Cand.Meta.Compiler);
    NoteDiff("build type", Base.Meta.BuildType, Cand.Meta.BuildType);
    if (Base.Meta.HardwareThreads != Cand.Meta.HardwareThreads)
      R.MetaWarnings.push_back(formatString(
          "hardware threads differ: baseline %u, candidate %u",
          Base.Meta.HardwareThreads, Cand.Meta.HardwareThreads));
  } else if (Base.HasMeta != Cand.HasMeta) {
    R.MetaWarnings.push_back(
        formatString("%s has no run-metadata header",
                     Base.HasMeta ? "candidate" : "baseline"));
  }
  if (Opts.StrictMeta && !R.MetaWarnings.empty()) {
    R.MetaError = "environment mismatch under --strict-meta: " +
                  R.MetaWarnings.front();
    return R;
  }

  // --- Align by name (both inputs are sorted) ---
  size_t I = 0, J = 0;
  while (I < Base.Metrics.size() || J < Cand.Metrics.size()) {
    const MetricSeries *B =
        I < Base.Metrics.size() ? &Base.Metrics[I] : nullptr;
    const MetricSeries *C =
        J < Cand.Metrics.size() ? &Cand.Metrics[J] : nullptr;
    MetricDelta D;
    if (B && (!C || B->Name < C->Name)) {
      D.Name = B->Name;
      D.Base = B->Value;
      D.V = Verdict::BaselineOnly;
      ++I;
      R.Deltas.push_back(std::move(D));
      continue;
    }
    if (C && (!B || C->Name < B->Name)) {
      D.Name = C->Name;
      D.Cand = C->Value;
      D.V = Verdict::CandidateOnly;
      ++J;
      R.Deltas.push_back(std::move(D));
      continue;
    }
    // Shared metric.
    D.Name = B->Name;
    D.Dir = metricDirection(D.Name);
    D.Base = B->Value;
    D.Cand = C->Value;
    if (D.Base != 0.0)
      D.DeltaPct = (D.Cand - D.Base) / std::fabs(D.Base) * 100.0;
    else
      D.DeltaPct = D.Cand == 0.0 ? 0.0 : 100.0;

    bool Changed;
    if (B->hasSamples() && C->hasSamples()) {
      D.HasStats = true;
      D.PValue = mannWhitneyPValue(B->Samples, C->Samples);
      BootstrapCi Ci = bootstrapMeanDeltaCi(
          B->Samples, C->Samples, Opts.BootstrapIters, Opts.BootstrapSeed);
      D.CiLoPct = Ci.LoPct;
      D.CiHiPct = Ci.HiPct;
      Changed = D.PValue < Opts.Alpha &&
                std::fabs(D.DeltaPct) > Opts.NoiseThresholdPct;
    } else {
      Changed = std::fabs(D.DeltaPct) > Opts.NoiseThresholdPct;
    }

    if (!Changed || D.Dir == Direction::Neutral) {
      D.V = Verdict::Unchanged;
      ++R.Unchanged;
    } else {
      bool WentDown = D.DeltaPct < 0.0;
      bool Better = D.Dir == Direction::LowerIsBetter ? WentDown : !WentDown;
      D.V = Better ? Verdict::Improved : Verdict::Regressed;
      ++(Better ? R.Improved : R.Regressed);
    }
    ++I;
    ++J;
    R.Deltas.push_back(std::move(D));
  }
  return R;
}

std::string formatCompareReport(const CompareResult &R,
                                const CompareOptions &Opts) {
  std::string Out;
  if (!R.MetaError.empty()) {
    Out += "gw-diff: refusing to compare: " + R.MetaError + "\n";
    return Out;
  }
  for (const std::string &W : R.MetaWarnings)
    Out += "warning: " + W + "\n";

  TablePrinter T(formatString(
      "gw-diff (noise threshold %.1f%%, alpha %.3f)",
      Opts.NoiseThresholdPct, Opts.Alpha));
  T.row()
      .cell("metric")
      .cell("baseline")
      .cell("candidate")
      .cell("delta")
      .cell("verdict")
      .cell("significance");
  for (const MetricDelta &D : R.Deltas) {
    std::string Delta =
        D.V == Verdict::BaselineOnly || D.V == Verdict::CandidateOnly
            ? "n/a"
            : formatString("%+.2f%%", D.DeltaPct);
    std::string Sig = "";
    if (D.HasStats)
      Sig = formatString("p=%.4f CI[%+.1f%%, %+.1f%%]", D.PValue,
                         D.CiLoPct, D.CiHiPct);
    T.row()
        .cell(D.Name)
        .cell(D.Base, 3)
        .cell(D.Cand, 3)
        .cell(Delta)
        .cell(verdictName(D.V))
        .cell(Sig);
  }
  Out += T.render();
  Out += formatString("summary: %zu improved, %zu regressed, %zu "
                      "unchanged (of %zu metrics)\n",
                      R.Improved, R.Regressed, R.Unchanged,
                      R.Deltas.size());
  return Out;
}

std::string compareReportJson(const CompareResult &R,
                              const CompareOptions &Opts) {
  std::string Out = formatString(
      "{\n  \"comparable\": %s,\n  \"noise_threshold_pct\": %.3f,\n"
      "  \"alpha\": %.4f,\n  \"improved\": %zu,\n  \"regressed\": %zu,\n"
      "  \"unchanged\": %zu,\n",
      R.comparable() ? "true" : "false", Opts.NoiseThresholdPct,
      Opts.Alpha, R.Improved, R.Regressed, R.Unchanged);
  if (!R.MetaError.empty())
    Out += formatString("  \"error\": \"%s\",\n",
                        jsonEscape(R.MetaError).c_str());
  Out += "  \"warnings\": [";
  for (size_t I = 0; I < R.MetaWarnings.size(); ++I)
    Out += formatString("%s\"%s\"", I ? "," : "",
                        jsonEscape(R.MetaWarnings[I]).c_str());
  Out += "],\n  \"metrics\": [\n";
  for (size_t I = 0; I < R.Deltas.size(); ++I) {
    const MetricDelta &D = R.Deltas[I];
    Out += formatString(
        "    {\"name\":\"%s\",\"baseline\":%.6f,\"candidate\":%.6f,"
        "\"delta_pct\":%.3f,\"verdict\":\"%s\"",
        jsonEscape(D.Name).c_str(), D.Base, D.Cand, D.DeltaPct,
        verdictName(D.V));
    if (D.HasStats)
      Out += formatString(
          ",\"p_value\":%.6f,\"ci_lo_pct\":%.3f,\"ci_hi_pct\":%.3f",
          D.PValue, D.CiLoPct, D.CiHiPct);
    Out += I + 1 < R.Deltas.size() ? "},\n" : "}\n";
  }
  Out += "  ]\n}\n";
  return Out;
}

} // namespace greenweb::prof
