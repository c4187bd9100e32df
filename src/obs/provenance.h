// Run provenance for the BENCH v2 timing records (obs/bench_harness.h).
//
// A timing number without its context is unfalsifiable: the same phase is
// legitimately 30x slower in an Assert build than in Release, 5x slower
// under ASan, and arbitrarily different across hosts.  Provenance stamps
// every BENCH record with exactly the facts a reader (or bench_compare)
// needs to decide whether two runs are comparable at all: the git commit
// (plus a dirty flag -- a number from an uncommitted tree pins nothing),
// the build type and compiler, whether DL_CHECK was compiled out (NDEBUG)
// and which sanitizers were baked in, the host's name and hardware thread
// count, and a UTC timestamp.
//
// Collect() reads the compile-time facts from macros and the runtime facts
// from the environment (git via subprocess; "unknown" when unavailable --
// a bench run from an exported tarball still produces a valid record).
// The struct round-trips through io::Json so BENCH files re-parse through
// the same strict parser the checkpoint sidecars use.
#pragma once

#include <string>

#include "core/status.h"
#include "io/json.h"

namespace decaylib::obs {

struct Provenance {
  std::string git_sha = "unknown";  // HEAD commit, or "unknown" without git
  bool git_dirty = false;           // uncommitted changes in the work tree
  std::string build_type = "unknown";  // CMAKE_BUILD_TYPE baked in at compile
  std::string compiler = "unknown";    // e.g. "gcc 12.2.0"
  bool ndebug = false;                 // DL_CHECK compiled out
  std::string sanitizers = "none";     // compiler-visible sanitizers
  int hardware_threads = 0;
  std::string hostname = "unknown";
  std::string timestamp_utc;  // ISO 8601, e.g. "2026-08-07T12:34:56Z"

  // Gathers the calling process's provenance.  Never fails: fields that
  // cannot be determined stay at their "unknown" defaults.
  static Provenance Collect();

  // {"git_sha": ..., "git_dirty": ..., "build_type": ..., "compiler": ...,
  //  "ndebug": ..., "sanitizers": ..., "hardware_threads": ...,
  //  "hostname": ..., "timestamp_utc": ...}
  io::Json ToJson() const;

  // Strict inverse of ToJson: every field present with the right JSON kind
  // and hardware_threads an integer within int, or kInvalidArgument naming
  // the field.
  static core::StatusOr<Provenance> FromJson(const io::Json& json);

  friend bool operator==(const Provenance&, const Provenance&) = default;
};

}  // namespace decaylib::obs
