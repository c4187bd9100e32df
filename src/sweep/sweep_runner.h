// Drives a parameter grid through the batch engine over shared kernel
// arenas.
//
// SweepRunner expands a SweepSpec into its cell grid and runs every
// (cell, instance) unit of the grid on one engine::BatchPool -- one queue,
// one set of workers, so cells overlap and none waits for another's
// slowest instance; the calling thread coordinates (geometry keys adopted
// in grid order, retries re-queued, the sidecar written while the workers
// run).  Two kinds of expensive per-cell state live above the grid and
// are reused across it:
//  * kernels -- per-instance KernelCache matrices are rebuilt inside
//    per-worker sinr::KernelArena slabs that live for the *whole sweep*:
//    same-shape cells (and every instance within a cell) reuse warm storage
//    instead of paying the allocator, and differently sized cells simply
//    re-grow the slabs;
//  * geometry -- one shared engine::GeometryCache keeps a cell's sampled
//    decay spaces, link pairings and measured metricities warm, so a run of
//    consecutive cells with equal GeometryKey (only power_tau / beta /
//    noise / explicit zeta differ) pays instance *generation* once, which
//    is the dominant per-cell cost (docs/performance.md).
//
// Determinism contract, inherited and extended from the batch runner:
//  * every deterministic statistic of every cell is invariant under the
//    worker-thread count (the batch runner's contract),
//  * arena reuse is invisible in the results -- a swept cell's aggregates
//    are bit-identical to the same cell run with per-instance allocation
//    (KernelCache::Build overwrites every entry, so rebuilt slabs hold the
//    same bits as fresh ones), and
//  * geometry reuse and the pairing route are invisible too -- a cached
//    geometry is the bit-identical output of the same BuildGeometry call,
//    and grid/MNN pairing provably reproduces the sort-greedy matching.
// SweepSignature serialises the deterministic part of a whole grid;
// tests/sweep_test.cc and bench_e20 assert every invariance.
//
// Fault tolerance (the robustness layer):
//  * a cell whose batch throws -- invalid runtime input, an injected
//    fault, a real bug -- or whose aggregates fail the numeric-health
//    check is *isolated*: its CellOutcome records the failure and the rest
//    of the grid keeps running on the same warm arenas;
//  * transient failures are retried up to SweepConfig::max_attempts;
//    invalid-input failures are permanent (retrying a bad spec cannot
//    help);
//  * with a checkpoint path set, completed healthy cells are persisted
//    after every cell (sweep/checkpoint.h) and `resume` restores them
//    bit-exactly, so an interrupted sweep re-runs only what it must and
//    its SweepSignature equals an uninterrupted run's at any thread count
//    (a restored cell whose instance count, metric names or health differ
//    from what a fresh run saves is kFailedPrecondition);
//  * FaultPlan injects deterministic failures (cell i, first k attempts)
//    through the real worker pool, so the recovery paths above are
//    exercised end to end by tests/fault_tolerance_test.cc.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/stage_stats.h"
#include "sinr/kernel.h"
#include "sweep/sweep.h"

namespace decaylib::sweep {

// Deterministic fault injection: makes the worker that picks up instance 0
// of the targeted cell throw engine::InjectedFault.  `fail_attempts` is how
// many leading attempts of that cell fail (-1 = every attempt, so the cell
// exhausts its retries and lands failed).
struct FaultPlan {
  int fail_cell = -1;     // flat grid index; -1 disarms the plan
  int fail_attempts = 1;  // attempts 1..k fail; -1 = all attempts fail

  bool Trips(int cell, int attempt) const {  // attempt is 1-based
    return cell == fail_cell &&
           (fail_attempts < 0 || attempt <= fail_attempts);
  }
};

struct SweepConfig {
  // Size of the one worker pool that runs every (cell, instance) unit of
  // the grid; 0 = hardware concurrency.
  int threads = 0;
  bool reuse_arena = true;  // rebuild kernels in per-worker arenas
  // Share sampled instance geometry (decay space, points, link pairing,
  // measured metricity) across cells whose engine::GeometryKey matches --
  // i.e. cells differing only in power_tau / beta / noise / explicit zeta.
  // Reuse follows grid order, so put non-geometric axes last (fastest).
  bool reuse_geometry = true;
  // LRU depth of the shared geometry cache, in key generations (>= 1).
  // 1 keeps the historical single-generation bound; more generations serve
  // grids whose geometric axis is NOT the slowest -- keys then interleave
  // and a depth covering the geometric axis length turns every revisit
  // into a warm hit (engine::GeometryCache).
  int geometry_generations = 1;
  // Pairing route for instance builds (kSortGreedy = reference A/B arm).
  engine::PairingMode pairing = engine::PairingMode::kAuto;

  // Robustness knobs.
  int max_attempts = 2;  // tries per cell before it is recorded failed
  FaultPlan fault;       // deterministic injected failures (tests, CLI)
  std::string checkpoint_path;  // empty = no checkpointing
  bool resume = false;   // restore completed cells from checkpoint_path
  // Test hook: stop executing after this many *fresh* (non-restored) cells
  // complete, returning a partial result -- simulates a kill mid-sweep
  // without process gymnastics.  0 = run the whole grid.
  int halt_after_cells = 0;
};

// How one cell's execution ended.
struct CellOutcome {
  bool ok = true;
  std::string error;   // status/exception text of the *last* attempt
  int attempts = 1;    // attempts consumed (1 = first try succeeded)
  bool resumed = false;  // restored from a checkpoint, not executed
  // Wall time of the *final* attempt alone (its cell_attempt span: first
  // unit start to last unit end) -- batch execution only, with checkpoint
  // writes excluded, so a retried or checkpointed cell reports what the
  // surviving run actually cost.  Cells share the worker pool, so the
  // attempt spans of concurrent cells may overlap.  Resumed cells report 0.
  double attempt_ms = 0.0;
  // Wall time summed over every attempt (failed ones included).
  double total_attempt_ms = 0.0;
};

struct SweepCellResult {
  SweepCell cell;
  engine::ScenarioResult result;  // meaningful only when outcome.ok
  CellOutcome outcome;
};

struct SweepResult {
  SweepSpec spec;
  std::vector<SweepCellResult> cells;  // grid (row-major) order

  // Robustness accounting (deterministic given config + fault plan).
  int cells_failed = 0;   // cells whose outcome is !ok
  int cells_retried = 0;  // cells that needed more than one attempt
  int cells_resumed = 0;  // cells restored from the checkpoint

  // Non-deterministic timing/accounting.
  double wall_ms = 0.0;         // whole-grid wall time: the sweep.<name> span
  long long arena_rebuilds = 0; // kernel builds that went through an arena
  long long arena_warm_skips = 0; // rebuilds into an already-right-sized slab
  long long geometry_builds = 0; // instance geometries sampled fresh
  long long geometry_reuses = 0; // instance geometries served from cache
  long long geometry_generation_hits = 0;  // Adopts served by a warm key
  long long geometry_evictions = 0;        // generations dropped by LRU
  // Per-stage breakdown merged from every ok cell's batch, plus the
  // sweep-level checkpoint_write (time in SaveCheckpoint) and
  // resume_restore (loading/verifying the sidecar) stages.  Wall clock;
  // never enters SweepSignature.
  obs::StageStats stage_stats;

  double CellsPerSecond() const {
    return wall_ms > 0.0
               ? 1000.0 * static_cast<double>(cells.size()) / wall_ms
               : 0.0;
  }
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig config = {});

  // Runs every cell of the grid, in grid order, against arenas shared
  // across the whole sweep.  Cell failures are isolated into CellOutcome;
  // Run itself throws core::StatusError only for whole-sweep problems (an
  // invalid SweepSpec, or a checkpoint that is unreadable / belongs to a
  // different spec when resuming).
  SweepResult Run(const SweepSpec& spec) const;

  std::vector<SweepResult> RunAll(std::span<const SweepSpec> specs) const;

  const SweepConfig& config() const noexcept { return config_; }

 private:
  SweepConfig config_;
};

// Serialises the deterministic part of a sweep: the grid identity plus
// every cell's engine::AggregateSignature, in grid order.  Bit-identical
// across thread counts, across arena/no-arena runs, across geometry-cache
// on/off runs, across pairing modes, and across fresh-vs-resumed runs.
// A failed cell contributes "cell N failed error=<message>\n" (the attempt
// count is config-dependent, so it stays out of the signature).
std::string SweepSignature(const SweepResult& result);

// Total feasibility/validation violations over all cells (must stay 0).
long long SweepViolationCount(const SweepResult& result);

}  // namespace decaylib::sweep
