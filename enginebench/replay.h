// Layer-by-layer replay of a workload, for the per-layer metrics.
//
// The end-to-end runs time BatchRunner / SweepRunner as a whole.  To say
// where that time goes without touching the library, the replay re-executes
// the same job one public layer call at a time, in the order the engine
// makes them (engine/batch_runner.cc RunInstance, sweep/sweep_runner.cc
// Run), and wraps every call in a span of its own:
//
//   engine.build_geometry   engine::BuildGeometry
//   bench.pairing_probe     engine::PairLinksByDecay[Grid] re-run on the
//                           built space (splits pairing out of the build)
//   core.compute_metricity  core::ComputeMetricity (measured-zeta specs)
//   engine.geometry_prepare engine::GeometryCache::Prepare
//   engine.geometry_acquire engine::GeometryCache::Acquire
//   engine.configure        engine::ConfigureInstance
//   sinr.kernel_build       sinr::KernelCache / sinr::KernelArena::Rebuild
//   sinr.farfield_build     sinr::FarFieldKernel
//   capacity.* / scheduling.schedule / sinr.power_control /
//   dynamics.queue / distributed.regret   the task entry points
//   sweep.save_checkpoint   sweep::SaveCheckpoint
//
// Spans never nest inside one another except under the per-instance /
// per-cell grouping spans, so a layer's self time is the sum of its span
// durations.  Every replayed instance's outputs are compared with the
// InstanceRecord of a real engine run of the same job: the per-layer table
// describes the program that was timed, or the replay reports a mismatch.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace decaylib::enginebench {

// One reported metric: name, value, unit and how it was obtained
// ("measured", "derived", "computed", "counted" or "reported").
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string how;
};

struct ReplayOptions {
  bool trace = false;          // obs on, spans captured by obs::TraceSink
  int instances_per_spec = 0;  // 0 = every instance; k = the first k of
                               // every spec / sweep cell
  std::string checkpoint_path;  // sweeps: replay the sidecar writes here
                                // ("" = skip them)
};

// Summed span durations (ms), one slot per layer call site.
struct LayerMs {
  double build_geometry = 0.0;
  double pairing_probe = 0.0;
  double metricity = 0.0;
  double geometry_prepare = 0.0;
  double acquire_warm = 0.0;
  double acquire_cold = 0.0;  // Acquire calls that built the slot
  double configure = 0.0;
  double kernel_build = 0.0;
  double farfield_build = 0.0;
  std::array<double, engine::kNumTaskKinds> task{};
  double checkpoint_write = 0.0;
};

struct ReplayResult {
  LayerMs ms;
  double wall_ms = 0.0;
  long long instances = 0;
  std::vector<std::string> mismatches;  // empty = replay equals the engine
  long long decay_space_bytes = 0;      // largest instance, (2n)^2 * 8
  long long kernel_bytes = 0;           // largest KernelCache::MemoryBytes
  long long farfield_bytes = 0;         // largest FarFieldKernel::MemoryBytes
  long long geometry_builds = 0;
  long long geometry_reuses = 0;
  std::map<std::string, long long> counters;  // obs counter deltas (trace)
};

// Replays `job` and checks it against `reference` (a RunJob outcome of the
// same job).  Never throws on a mismatch; an exception from a layer call
// propagates.
ReplayResult Replay(const Job& job, const RunOutcome& reference,
                    const ReplayOptions& options);

// The per-layer metric table of a traced replay.  `untraced_ms` is the
// wall time of an untraced single-threaded engine run of the same job (the
// tracing-overhead base).
std::vector<Metric> LayerMetrics(const ReplayResult& replay,
                                 double untraced_ms);

}  // namespace decaylib::enginebench
