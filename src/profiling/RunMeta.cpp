//===- profiling/RunMeta.cpp - Run metadata header ------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profiling/RunMeta.h"

#include "support/Json.h"

#include <algorithm>
#include <thread>

// Injected by src/profiling/CMakeLists.txt; fall back to placeholders
// so the file also compiles standalone (e.g. in IDE indexers).
#ifndef GW_BUILD_GIT_COMMIT
#define GW_BUILD_GIT_COMMIT "unknown"
#endif
#ifndef GW_BUILD_TYPE
#define GW_BUILD_TYPE "unknown"
#endif
#ifndef GW_BUILD_COMPILER
#define GW_BUILD_COMPILER "unknown"
#endif

namespace greenweb::prof {

namespace {

/// Ingest limits of a run-metadata header.
constexpr int64_t MaxSchema = 1'000'000;
constexpr uint64_t MaxHardwareThreads = 1 << 16;

} // namespace

RunMeta RunMeta::current(std::string Flags) {
  RunMeta M;
  M.GitCommit = GW_BUILD_GIT_COMMIT;
  M.BuildType = GW_BUILD_TYPE;
  M.Compiler = GW_BUILD_COMPILER;
  M.HardwareThreads = std::max(1u, std::thread::hardware_concurrency());
  M.Flags = std::move(Flags);
  return M;
}

std::string RunMeta::toJsonObject() const { return serialize(false); }

std::string RunMeta::toJsonlLine() const { return serialize(true); }

std::string RunMeta::serialize(bool WithKind) const {
  std::string Out;
  json::Writer W(Out);
  W.beginObject();
  if (WithKind)
    W.key("kind").str("meta");
  W.key("schema").integer(Schema).key("git_commit").str(GitCommit);
  W.key("build_type").str(BuildType).key("compiler").str(Compiler);
  W.key("hardware_threads").uinteger(HardwareThreads);
  W.key("flags").str(Flags);
  if (!Governor.empty())
    W.key("governor").str(Governor);
  W.endObject();
  return Out;
}

std::string RunMeta::wrapSnapshot(const std::string &SnapshotJson) const {
  size_t Brace = SnapshotJson.find('{');
  if (Brace == std::string::npos)
    return SnapshotJson;
  return SnapshotJson.substr(0, Brace + 1) + "\n  \"meta\": " +
         toJsonObject() + "," + SnapshotJson.substr(Brace + 1);
}

std::string joinCommandLine(int Argc, char **Argv) {
  std::string Out;
  for (int I = 0; I < Argc; ++I) {
    if (I)
      Out += ' ';
    Out += Argv[I];
  }
  return Out;
}

bool RunMeta::fromJson(const json::Value &V, RunMeta &Out,
                       std::string *Error) {
  json::Reader R(V, "run meta");
  RunMeta M;
  M.Schema = int(R.integer("schema", 0, 0, MaxSchema));
  M.GitCommit = R.string("git_commit", "unknown");
  M.BuildType = R.string("build_type", "unknown");
  M.Compiler = R.string("compiler", "unknown");
  M.HardwareThreads =
      unsigned(R.count("hardware_threads", 0, MaxHardwareThreads));
  M.Flags = R.string("flags");
  M.Governor = R.string("governor");
  if (R.ok())
    Out = std::move(M);
  return R.finish(Error);
}

} // namespace greenweb::prof
