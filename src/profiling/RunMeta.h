//===- profiling/RunMeta.h - Run metadata header ----------------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run-metadata header stamped onto every machine-readable artifact
/// (bench --json files, metrics snapshots, telemetry JSONL logs):
/// schema version, git commit, build type, compiler, hardware
/// concurrency, and the producing command line. gw-diff reads it to
/// refuse apples-to-oranges comparisons (different schema) and to warn
/// when the environments differ (different compiler/build/host).
///
/// Build-time values (commit, build type, compiler) are injected by
/// src/profiling/CMakeLists.txt as compile definitions; everything else
/// is read at run time.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_PROFILING_RUNMETA_H
#define GREENWEB_PROFILING_RUNMETA_H

#include <string>

namespace greenweb::json {
struct Value;
} // namespace greenweb::json

namespace greenweb::prof {

/// Bump when the meaning or layout of exported artifacts changes
/// incompatibly; gw-diff refuses to compare across schema versions.
constexpr int kRunMetaSchemaVersion = 1;

struct RunMeta {
  int Schema = kRunMetaSchemaVersion;
  std::string GitCommit;   ///< Short commit hash ("unknown" outside git).
  std::string BuildType;   ///< CMAKE_BUILD_TYPE ("Release", ...).
  std::string Compiler;    ///< "GNU 12.2.0"-style id + version.
  unsigned HardwareThreads = 0;
  std::string Flags;       ///< Producing command line (free-form).
  /// Governor the artifact was produced under (ablation artifacts);
  /// empty for artifacts with no single governor. Serialized only when
  /// set, so governor-less artifacts keep their exact pre-field bytes.
  std::string Governor;

  /// The metadata for this build and host; \p Flags is typically the
  /// joined argv of the producing tool.
  static RunMeta current(std::string Flags = "");

  /// One JSON object, fixed key order:
  /// {"schema":1,"git_commit":"...","build_type":"...","compiler":"...",
  ///  "hardware_threads":N,"flags":"..."}.
  std::string toJsonObject() const;

  /// One JSONL header line for telemetry logs:
  /// {"kind":"meta",...same fields...}.
  std::string toJsonlLine() const;

  /// Reads a metadata object (either serialized form; absent fields
  /// keep the defaults of an unknown producer). False, with a
  /// diagnostic naming the field, when a field is malformed.
  static bool fromJson(const json::Value &V, RunMeta &Out,
                       std::string *Error);

  /// Splices this metadata into an existing JSON-object snapshot as a
  /// leading "meta" member: {"meta":{...},<original members>}. The
  /// snapshot must start with '{'; returned unchanged otherwise.
  std::string wrapSnapshot(const std::string &SnapshotJson) const;

private:
  std::string serialize(bool WithKind) const;
};

/// Joins argv into the Flags string ("prog --a --b").
std::string joinCommandLine(int Argc, char **Argv);

} // namespace greenweb::prof

#endif // GREENWEB_PROFILING_RUNMETA_H
