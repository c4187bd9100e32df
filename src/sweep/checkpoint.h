// Checkpoint/resume sidecars for sweep runs.
//
// A long sweep that dies -- machine preemption, a crash in one cell --
// should not forfeit the cells it already finished.  SaveCheckpoint writes
// a JSON sidecar holding the sweep's identity (a hash of the full
// SweepSpec) plus every *completed, healthy* cell's deterministic outcome:
// its flat grid index, attempt count, instance count, and the full
// per-metric aggregate (sum/min/max/count).  LoadCheckpoint reads it back;
// SweepRunner::Run with SweepConfig::resume skips the recorded cells and
// restores their aggregates bit-exactly, so a resumed run's SweepSignature
// is byte-identical to an uninterrupted one at any thread count.
//
// Bit-exactness rests on two choices: sum/min/max are serialised as %.17g
// *strings* (core::ParseDouble reads every double back exactly, including
// the +/-inf sentinels of a count-0 summary, which JSON numbers cannot
// carry; a "nan" is a parse error), and only cells whose AggregateHealth
// passed are stored, so a restore can never resurrect a poisoned
// aggregate.  Failed cells are deliberately not
// recorded: a resume retries them from scratch.
//
// Writes are atomic (tmp file + rename): the sidecar is either the old
// complete document or the new one, never a torn mix.  A missing file is
// not an error for resume (fresh start); a malformed file or a spec-hash
// mismatch is kFailedPrecondition -- resuming someone else's grid would
// silently splice wrong results into the signature.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "engine/batch_runner.h"
#include "sweep/sweep.h"

namespace decaylib::sweep {

// One completed cell as stored in / restored from a sidecar.
struct CheckpointCell {
  int index = 0;      // flat row-major grid index
  int attempts = 1;   // attempts the cell took when it first completed
  int instances = 0;  // instance count (restores ScenarioResult::instances)
  std::vector<std::pair<std::string, engine::MetricSummary>> aggregate;
};

struct SweepCheckpoint {
  std::string sweep;      // SweepSpec::name, informational
  std::string spec_hash;  // SweepSpecHash of the owning spec
  long long grid = 0;     // GridSize at save time
  std::vector<CheckpointCell> cells;  // ascending by index
};

// Stable 64-bit hex digest (FNV-1a) over a SweepSpec's name, the
// engine::FieldText of every row of the base spec's field table, the axes
// with %.17g values, and the task list.  Two specs hash equal iff a
// checkpoint of one is safe to resume under the other.
std::string SweepSpecHash(const SweepSpec& spec);

// Serialises/parses the sidecar document itself (exposed for tests).
std::string CheckpointToJson(const SweepCheckpoint& checkpoint);
core::StatusOr<SweepCheckpoint> CheckpointFromJson(const std::string& text);

// Atomic write (path + ".tmp", then rename).  kIoError on filesystem
// failure.
core::Status SaveCheckpoint(const std::string& path,
                            const SweepCheckpoint& checkpoint);

// Reads a sidecar back.  kIoError when the file cannot be read or parsed;
// callers distinguish "no file yet" themselves (FileExists below) since a
// fresh resume is not an error.
core::StatusOr<SweepCheckpoint> LoadCheckpoint(const std::string& path);

bool FileExists(const std::string& path);

}  // namespace decaylib::sweep
