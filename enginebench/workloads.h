// The four workloads of the engine-level benchmark and the public-API runs
// that time them.
//
// Each workload is one closed batch job, run through the engine's public
// entry points exactly as a user would run it:
//   * batch_mix    -- all six engine::BuiltinScenarios(), all eight tasks,
//                     one pooled engine::BatchRunner::Run;
//   * sweep_grid   -- the four sweep::BuiltinSweeps() (link counts raised)
//                     through one sweep::SweepRunner with shared arenas, the
//                     geometry cache and per-cell checkpointing;
//   * farfield_4k  -- uniform_dense at 4096 links, kernel_mode=farfield,
//                     algorithm1/greedy/schedule, 2 instances on 2 workers;
//   * dense_4k     -- the same spec under kernel_mode=dense (the control).
//
// A workload's inputs are a pure function of (workload, seed): at a
// workload's default seed every spec keeps its builtin seed, so the job's
// AggregateSignature / SweepSignature digest can be pinned in Workloads();
// any other seed shifts every spec seed deterministically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/batch_runner.h"
#include "sweep/sweep_runner.h"

namespace decaylib::enginebench {

// A workload's name, its default seed, and the FNV-1a digest of its
// signature at that seed (the correctness reference; see Digest).
struct WorkloadInfo {
  const char* name;
  std::uint64_t default_seed;
  const char* digest;
};

// The workloads, in BENCHMARK.json order.
const std::vector<WorkloadInfo>& Workloads();
const WorkloadInfo* FindWorkload(const std::string& name);

// A fully set-up job: specs expanded and validated, runner configuration
// resolved, checkpoint path prepared.
struct Job {
  std::string workload;
  bool is_sweep = false;
  std::vector<engine::ScenarioSpec> specs;  // batch workloads
  engine::BatchConfig batch;
  std::vector<sweep::SweepSpec> sweeps;     // sweep workloads
  sweep::SweepConfig sweep;
  long long instances = 0;  // instances one run completes (all cells)
  long long units = 0;      // attempted units per run: instances or cells
};

// Builds the job for `workload` under `seed` (the default seed keeps the
// builtin spec seeds).  Validates every spec and sweep, expands the sweep
// grids to count their instances, and prepares `work_dir` as the
// checkpoint location.  Throws core::StatusError on an invalid spec.
Job MakeJob(const WorkloadInfo& workload, std::uint64_t seed,
            const std::string& work_dir);

// One run of a job through BatchRunner::Run / SweepRunner::RunAll.
struct RunOutcome {
  std::vector<engine::ScenarioResult> batch;
  std::vector<sweep::SweepResult> sweeps;
  std::string signature;     // AggregateSignature / concatenated SweepSignature
  long long failed = 0;      // failed units (Status error, worker throw, cell)
  long long violations = 0;  // alg1_infeasible + schedule_invalid (+ sweep)
  std::string error;         // first failure, for the log
  double wall_ms = 0.0;
};

// Runs the job once.  `threads` > 0 overrides the job's pool size (the
// traced mode's single-threaded reference run); never throws -- failures
// land in RunOutcome::failed / error.
RunOutcome RunJob(const Job& job, int threads = 0);

// FNV-1a 64-bit digest of a signature text, as 16 hex digits.
std::string Digest(const std::string& text);

}  // namespace decaylib::enginebench
