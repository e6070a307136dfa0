//===- tests/telemetry/SerializerDiffTest.cpp - writers vs printf oracles -===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Differential tests: the append-in-place telemetry writers against the
// printf-based serializers they replaced (tests/common/
// ReferenceSerializers.h), on adversarial numbers and strings — signed
// zero, NaN, infinities, 1e308, "%.0f" ties, values just around
// rounding boundaries, INT64_MIN, quotes and backslashes, a default
// row of every record type, an empty log — and on seeded random doubles.
//
//===----------------------------------------------------------------------===//

#include "ReferenceSerializers.h"

#include "support/Json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cstring>
#include <limits>
#include <random>

using namespace greenweb;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();
constexpr double NaN = std::numeric_limits<double>::quiet_NaN();

/// Numbers that stress every branch of fixed-point formatting.
std::vector<double> adversarialDoubles() {
  std::vector<double> V = {0.0,     -0.0,     NaN,      -NaN,    Inf,
                           -Inf,    1e308,    -1e308,   DBL_MAX, -DBL_MAX,
                           DBL_MIN, 4.9e-324, 0.5,      1.5,     2.5,
                           -0.5,    -2.5,     0.0005,   0.0015,  0.0025,
                           1e-7,    5e-7,     -5e-7,    1e-6,    0.9999995,
                           1.0,     123.456,  1e15,     1e16,    1e22,
                           1e23,    9007199254740993.0,   2e9 / 3.0,
                           -1234567.8901234};
  // Neighbours of decimal ties at each precision the writers use.
  // Neighbours of the fast path's range bound, |X| * 10^P = 2^52, too.
  for (double Edge : {0.5, 1.5, 2.5, 0.0005, 0.0015, 0.0000005, 0.0000015,
                      17.0625, 4503599627370495.5, 0x1p52, 0x1p52 / 1e3,
                      0x1p52 / 1e6})
    for (double X : {Edge, -Edge}) {
      V.push_back(std::nextafter(X, Inf));
      V.push_back(std::nextafter(X, -Inf));
    }
  return V;
}

std::string printfFixed(double X, int Precision) {
  return formatString("%.*f", Precision, X);
}

uint64_t bitsOf(double X) {
  uint64_t B;
  std::memcpy(&B, &X, sizeof(B));
  return B;
}

/// Seeded doubles spread over bit patterns, decimal magnitudes and
/// short decimal fractions (the last lands near rounding ties).
std::vector<double> randomDoubles(size_t N, uint64_t Seed) {
  std::mt19937_64 G(Seed);
  std::vector<double> V;
  V.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    switch (I % 4) {
    case 0: {
      uint64_t Bits = G();
      double X;
      std::memcpy(&X, &Bits, sizeof(X));
      V.push_back(X);
      break;
    }
    case 1: {
      double Mag = std::pow(10.0, double(int(G() % 25)) - 12.0);
      V.push_back((double(G() >> 11) * 0x1.0p-53 - 0.5) * Mag);
      break;
    }
    case 2: {
      // k / 10^m, the shape of latencies and joules rounded upstream.
      int64_t K = int64_t(G() % 20'000'000) - 10'000'000;
      V.push_back(double(K) / std::pow(10.0, double(G() % 9)));
      break;
    }
    default: {
      // Half-integers scaled into the 3- and 6-digit rounding positions,
      // then nudged a few ulps either way.
      double X = (double(G() % 200'000) + 0.5) / (G() % 2 ? 1e3 : 1e6);
      for (uint64_t Steps = G() % 4; Steps > 0; --Steps)
        X = std::nextafter(X, G() % 2 ? Inf : -Inf);
      V.push_back(X);
      break;
    }
    }
  }
  return V;
}

TEST(SerializerDiffTest, AppendFixedMatchesPrintf) {
  std::vector<double> Values = adversarialDoubles();
  std::vector<double> Random = randomDoubles(40'000, 1);
  Values.insert(Values.end(), Random.begin(), Random.end());
  for (double X : Values)
    for (int P : {0, 1, 3, 6, 9, 17}) {
      std::string Out = "prefix";
      appendFixed(Out, X, P);
      ASSERT_EQ(Out, "prefix" + printfFixed(X, P))
          << "bits 0x" << std::hex << bitsOf(X) << " precision " << std::dec
          << P;
    }
}

TEST(SerializerDiffTest, TrimmedFieldNumberMatchesReference) {
  std::vector<double> Values = adversarialDoubles();
  std::vector<double> Random = randomDoubles(40'000, 2);
  Values.insert(Values.end(), Random.begin(), Random.end());
  for (double X : Values) {
    std::string Out;
    appendTrimmedFixed6(Out, X);
    ASSERT_EQ(Out, reference::fieldNumber(X))
        << "bits 0x" << std::hex << bitsOf(X);
  }
  EXPECT_EQ(reference::fieldNumber(-0.0), "-0.0");
  EXPECT_EQ(reference::fieldNumber(1e-7), "0.0");
}

TEST(SerializerDiffTest, CanonicalNumberIsBitIdenticalToReference) {
  std::vector<double> Values = adversarialDoubles();
  std::vector<double> Random = randomDoubles(200'000, 3);
  Values.insert(Values.end(), Random.begin(), Random.end());
  for (double X : Values)
    ASSERT_EQ(bitsOf(telemetryCanonicalNumber(X)),
              bitsOf(reference::canonicalNumber(X)))
        << "bits 0x" << std::hex << bitsOf(X);
}

TEST(SerializerDiffTest, IntegersAndEscapesMatchPrintf) {
  for (int64_t X : {int64_t(0), int64_t(-1), int64_t(42),
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    std::string Out;
    appendInt(Out, X);
    EXPECT_EQ(Out, formatString("%lld", static_cast<long long>(X)));
  }
  for (uint64_t X : {uint64_t(0), uint64_t(7),
                     std::numeric_limits<uint64_t>::max()}) {
    std::string Out;
    appendUInt(Out, X);
    EXPECT_EQ(Out, formatString("%llu", static_cast<unsigned long long>(X)));
  }
  for (std::string_view S : {"", "plain", "\"", "\\", "a\"b\\c", "\"\"\\\\",
                             "tail\\", "\"head", "utf-8 \xc3\xa9"}) {
    std::string Out = "x";
    appendJsonEscaped(Out, S);
    EXPECT_EQ(Out, "x" + reference::jsonEscape(S));
    EXPECT_EQ(jsonEscape(S), reference::jsonEscape(S));
  }
}

/// Records covering every field type and every adversarial value.
/// A default-constructed row of every record type.
template <size_t... I>
void appendDefaultRows(std::vector<TelemetryRecord> &Rs,
                       std::index_sequence<I...>) {
  (Rs.emplace_back(TimePoint::origin(),
                   std::variant_alternative_t<I, TelemetryPayload>{}),
   ...);
}

std::vector<TelemetryRecord> adversarialRecords() {
  std::vector<TelemetryRecord> Rs;
  int64_t Ns = -1'500;
  for (double X : adversarialDoubles()) {
    Rs.emplace_back(TimePoint::fromNanos(Ns),
                    CounterSampleRecord{"k\"ey\\", X});
    Rs.emplace_back(TimePoint::fromNanos(Ns),
                    AlertRecord{"", X, -X, X * 0.5, -1, 0});
    Ns = (Ns * 3 + 1'234'567) % 1'000'000'000'000'000'000;
  }
  appendDefaultRows(
      Rs, std::make_index_sequence<std::variant_size_v<TelemetryPayload>>{});
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  Rs.emplace_back(TimePoint::fromNanos(Max),
                  SchedItemRecord{Min, Max, "say \"hi\" \\ bye\\", Min, Max,
                                  0, -1, 1, Min, Max});
  Rs.emplace_back(TimePoint::fromNanos(Max),
                  SchedBatchRecord{Min, Max, 0, -1, Min, Max, -0.0, 1e308});
  Rs.emplace_back(TimePoint::fromNanos(-1),
                  FaultEventRecord{"x\"y", "inject", "\\\"", 0.0005});
  // Every byte below 0x20, plus DEL, in two values.
  std::string Controls;
  for (char C = 0; C < 0x20; ++C)
    Controls += C;
  Controls += '\x7f';
  Rs.emplace_back(TimePoint::fromNanos(7),
                  FaultEventRecord{"ctl" + Controls, "inject", "a\nb\tc", 0.0});
  Rs.emplace_back(TimePoint::fromNanos(7),
                  CompletedSpanRecord{1, 0, Max, Min, Controls, "\\", -0.0,
                                      1e-7, 1});
  return Rs;
}

TEST(SerializerDiffTest, RecordsAndLogsMatchReference) {
  TelemetryLog Log;
  EXPECT_EQ(Log.toJsonl(), "");
  EXPECT_EQ(Log.toJsonl(), reference::jsonl(Log));
  for (const TelemetryRecord &R : adversarialRecords()) {
    EXPECT_EQ(telemetryRecordJson(R), reference::recordJson(R));
    Log.append(R);
  }
  EXPECT_EQ(Log.toJsonl(), reference::jsonl(Log));
  std::string Prefixed = "header\n";
  Log.appendJsonl(Prefixed);
  EXPECT_EQ(Prefixed, "header\n" + reference::jsonl(Log));
}

std::string dumpJson(const BlackBoxDump &D) {
  std::string Out;
  json::Writer W(Out);
  D.appendJson(W);
  return Out;
}

TEST(SerializerDiffTest, BlackBoxMatchesReference) {
  BlackBoxDump Empty;
  EXPECT_EQ(dumpJson(Empty), reference::blackBoxJson(Empty));

  BlackBoxDump D;
  D.Trigger = "alert:\"q\"";
  D.Detail = "value \\ nan";
  D.Ts = TimePoint::fromNanos(-2'500);
  D.Seq = std::numeric_limits<uint64_t>::max();
  D.Records = adversarialRecords();
  EXPECT_EQ(dumpJson(D), reference::blackBoxJson(D));
}

TEST(SerializerDiffTest, ChromeTraceMatchesReference) {
  // A hub holding every exported record kind with adversarial values.
  Telemetry Tel;
  int64_t Ns = 0;
  Tel.setClock([&Ns] { return TimePoint::fromNanos(Ns); });
  for (double X : adversarialDoubles()) {
    Ns += 1'000'333;
    Tel.recordEnergySample({X, -X, int64_t(Ns % 7)});
    Tel.recordCounterSample("q\"\\", X);
    Tel.recordConfigSwitch({"A7@500MHz", "A15@1800MHz", int64_t(Ns % 2),
                            int64_t(X == X ? 1800 : 0), 1, 0, X});
    Tel.recordFaultEvent({"dvfs\"", "inject", "detail \\ " + std::to_string(X),
                          X});
    Tel.recordFaultEvent({"thermal", "begin", "", X});
  }
  GovernorDecisionRecord Dec;
  Dec.Governor = "Green\"Web";
  Dec.Reason = "pre\\dicted";
  Dec.Config = "A15@\"1800\"";
  Dec.RootId = 3;
  Dec.PredictedMs = 0.0005;
  Dec.TargetMs = 2.5;
  Dec.FeedbackOffset = -2;
  Tel.recordGovernorDecision(Dec);
  Dec.RootId = 99; // No frame carries this root: no flow hop.
  Dec.PredictedMs = NaN;
  Tel.recordGovernorDecision(Dec);
  FeedbackActionRecord Fb;
  Fb.Governor = "g\\";
  Fb.Action = "step_\"up\"";
  Fb.ModelKey = "#btn\"click";
  Fb.NewOffset = std::numeric_limits<int64_t>::min();
  Fb.MeasuredMs = -Inf;
  Tel.recordFeedbackAction(Fb);
  {
    SpanTracer &Spans = Tel.spans();
    int64_t Root = Spans.begin("input:\"tap\"", "inputs", 0, 0, 0);
    Ns += 2'000'500;
    int64_t Child = Spans.begin("task\\x", "main \"thread\"", 0, 0, Root);
    Ns += 1'500;
    Spans.end(Child);
    Spans.end(Root);
  }

  std::vector<FrameRecord> Frames(3);
  for (size_t I = 0; I < Frames.size(); ++I) {
    FrameRecord &F = Frames[I];
    F.FrameId = I == 2 ? std::numeric_limits<uint64_t>::max() : I;
    F.BeginTime = TimePoint::fromNanos(int64_t(I) * 16'666'667);
    F.ReadyTime = F.BeginTime + Duration::fromMillis(0.0005 + double(I));
    F.CyclesCharged = I == 1 ? 2.5 : 1e9 / 3.0;
    for (uint64_t Root : {uint64_t(3), uint64_t(4 + I)}) {
      MsgLatency L;
      L.Msg.RootId = Root;
      L.Msg.RootEvent = I == 1 ? "cli\"ck\\" : "touchstart";
      L.Msg.StartTs = F.BeginTime - Duration::microseconds(1'500);
      L.Latency = Duration::fromMillis(1.5 + double(I) / 3.0);
      F.Latencies.push_back(L);
    }
  }
  Frames[0].Latencies.clear(); // A frame with no inputs.
  std::vector<ConfigInterval> Cpu = {
      {{CoreKind::Little, 350}, TimePoint::origin(), TimePoint::fromNanos(5)},
      {{CoreKind::Big, 1800}, TimePoint::fromNanos(5),
       TimePoint::fromNanos(1'000'000'007)}};

  EXPECT_EQ(exportChromeTrace({}, {}), reference::chromeTrace({}, {}));
  EXPECT_EQ(exportChromeTrace(Frames, Cpu),
            reference::chromeTrace(Frames, Cpu));
  EXPECT_EQ(exportChromeTrace(Frames, Cpu, Tel),
            reference::chromeTrace(Frames, Cpu, Tel));

  Telemetry Empty;
  EXPECT_EQ(exportChromeTrace({}, {}, Empty),
            reference::chromeTrace({}, {}, Empty));
}

} // namespace
