#include "sweep/sweep_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ranges>
#include <utility>

#include "engine/batch_runner.h"
#include "engine/report.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sweep/checkpoint.h"

namespace decaylib::sweep {

SweepRunner::SweepRunner(SweepConfig config) : config_(std::move(config)) {}

namespace {

using core::Status;
using core::StatusError;

// Registry handles of the sweep layer, resolved once.  Everything here only
// ticks when obs::Enabled(); the SweepResult timing fields come from the
// same spans' Finish() values and are populated always.  Catalogue:
// docs/observability.md.
struct SweepInstruments {
  obs::Counter& cells;
  obs::Counter& cell_attempts;
  obs::Counter& cells_failed;
  obs::Counter& cells_retried;
  obs::Counter& cells_resumed;
  obs::Counter& checkpoint_writes;
  obs::Histogram& cell_ms;
  obs::Histogram& checkpoint_write_ms;

  static SweepInstruments& Get() {
    static SweepInstruments* instruments = [] {
      obs::Registry& registry = obs::Registry::Global();
      return new SweepInstruments{
          registry.GetCounter("sweep.cells"),
          registry.GetCounter("sweep.cell_attempts"),
          registry.GetCounter("sweep.cells_failed"),
          registry.GetCounter("sweep.cells_retried"),
          registry.GetCounter("sweep.cells_resumed"),
          registry.GetCounter("sweep.checkpoint_writes"),
          registry.GetHistogram("sweep.cell_ms"),
          registry.GetHistogram("sweep.checkpoint_write_ms"),
      };
    }();
    return *instruments;
  }
};

// Why a restored cell cannot enter the grid ("" when it can).  A fresh run
// saves only completed, healthy cells: every instance of the spec ran, and
// the aggregate lists zeta and then the engine's metric table, finite
// wherever populated and the empty summary wherever not.  Anything else
// would splice in a signature no run produces.
std::string RestoreFault(const CheckpointCell& cell, int instances) {
  if (cell.instances != instances) {
    return "does not hold its spec's instance count";
  }
  engine::ScenarioResult result;
  result.aggregate = cell.aggregate;
  if (result.aggregate.empty() || result.aggregate.front().first != "zeta" ||
      !std::ranges::equal(
          result.aggregate | std::views::drop(1), engine::AggregateMetrics(),
          [](const auto& entry, const engine::AggregateMetric& metric) {
            return entry.first == metric.name;
          })) {
    return "does not list zeta and the engine's aggregate metrics in order";
  }
  for (const auto& [name, m] : result.aggregate) {
    // == takes -0 for 0, but the signature prints "sum=-0".
    if (m.count == 0 &&
        (!(m == engine::MetricSummary{}) || std::signbit(m.sum))) {
      return "holds a count-0 summary of " + name + " that is not empty";
    }
  }
  return engine::AggregateHealth(result).message();
}

}  // namespace

SweepResult SweepRunner::Run(const SweepSpec& spec) const {
  // Whole-sweep validation up front: a sweep built from external input
  // fails here with a clean diagnostic instead of cell-by-cell.
  core::ThrowIfError(ValidateSweepSpec(spec));

  SweepResult out;
  out.spec = spec;

  const int threads = engine::ResolveThreads(config_.threads);
  // One arena per worker, shared across every cell of the grid -- and
  // across retries: a failed attempt leaves slabs warm for the next.
  std::vector<sinr::KernelArena> arenas;
  if (config_.reuse_arena) {
    arenas.resize(static_cast<std::size_t>(threads));
  }
  // One geometry cache for the whole grid: cells re-sample only the
  // instances a geometry-axis change actually invalidates.
  engine::GeometryCache geometry;
  geometry.SetGenerations(std::max(1, config_.geometry_generations));

  obs::Span sweep_span("sweep." + spec.name, nullptr, "sweep");
  std::vector<SweepCell> cells = ExpandGrid(spec);

  // Resume: load the sidecar (if any) and index its cells.  A missing file
  // is a fresh start; a corrupt file or one hashed from a different spec is
  // a hard error -- splicing foreign results into the grid would corrupt
  // the signature silently.
  const std::string hash =
      config_.checkpoint_path.empty() ? std::string() : SweepSpecHash(spec);
  SweepCheckpoint restored_doc;
  // The restored cells by grid index (nullptr = not restored).
  std::vector<const CheckpointCell*> restored(cells.size(), nullptr);
  bool loaded_sidecar = false;
  if (config_.resume && !config_.checkpoint_path.empty() &&
      FileExists(config_.checkpoint_path)) {
    obs::Span restore_span("resume_restore", nullptr, "sweep");
    core::StatusOr<SweepCheckpoint> loaded =
        LoadCheckpoint(config_.checkpoint_path);
    if (!loaded.ok()) {
      throw StatusError(Status::FailedPrecondition(
          "resume: " + loaded.status().ToString()));
    }
    restored_doc = std::move(*loaded);
    if (restored_doc.spec_hash != hash) {
      throw StatusError(Status::FailedPrecondition(
          "resume: checkpoint " + config_.checkpoint_path +
          " belongs to a different sweep spec (hash " +
          restored_doc.spec_hash + ", expected " + hash + ")"));
    }
    for (const CheckpointCell& cell : restored_doc.cells) {
      if (cell.index >= 0 && cell.index < static_cast<int>(cells.size())) {
        const std::size_t i = static_cast<std::size_t>(cell.index);
        const std::string fault = RestoreFault(cell, cells[i].spec.instances);
        if (!fault.empty()) {
          throw StatusError(Status::FailedPrecondition(
              "resume: checkpoint cell " + std::to_string(cell.index) + ": " +
              fault));
        }
        restored[i] = &cell;
      }
    }
    loaded_sidecar = true;
    out.stage_stats.Record("resume_restore", restore_span.Finish());
  }

  // The checkpoint being (re)written this run: the restored cells plus
  // every fresh healthy cell as it completes, kept in cell-index order
  // whatever order the cells finish in, so a resume-of-a-resume keeps
  // accumulating and a halted resume keeps every restored cell.
  SweepCheckpoint save_doc;
  save_doc.sweep = spec.name;
  save_doc.spec_hash = hash;
  save_doc.grid = static_cast<long long>(cells.size());
  for (const CheckpointCell* rc : restored) {
    if (rc != nullptr) save_doc.cells.push_back(*rc);
  }
  const bool checkpointing = !config_.checkpoint_path.empty();
  // Whether the sidecar on disk lags save_doc: a loaded sidecar already
  // holds the restored cells, and every fresh cell is written as it lands.
  bool unsaved = !loaded_sidecar;
  const auto save = [&] {
    if (!checkpointing) return;
    // Timed separately from cell attempts (CellOutcome::attempt_ms), so
    // checkpointed cells don't report sidecar I/O as batch time.
    obs::Span save_span("checkpoint_write",
                        &SweepInstruments::Get().checkpoint_write_ms, "sweep");
    core::ThrowIfError(SaveCheckpoint(config_.checkpoint_path, save_doc));
    out.stage_stats.Record("checkpoint_write", save_span.Finish());
    SweepInstruments::Get().checkpoint_writes.Add();
    unsaved = false;
  };

  // The cells this run executes: the fresh ones in grid order, only the
  // first halt_after_cells of them when halting.  The result lists the grid
  // prefix before the first fresh cell left out (a simulated kill).
  std::vector<int> fresh;
  std::size_t listed = cells.size();
  for (const SweepCell& cell : cells) {
    if (restored[static_cast<std::size_t>(cell.index)] != nullptr) continue;
    if (config_.halt_after_cells > 0 &&
        static_cast<int>(fresh.size()) >= config_.halt_after_cells) {
      listed = static_cast<std::size_t>(cell.index);
      break;
    }
    fresh.push_back(cell.index);
  }
  int units = 0;
  for (const int c : fresh) units += cells[static_cast<std::size_t>(c)].spec.instances;

  // Per-cell progress of the fresh cells.
  struct Progress {
    CellOutcome outcome;
    engine::ScenarioResult result;
    engine::GeometryCache::Lease geometry;  // held until the cell is final
    obs::Instant start;  // attempt 1's first unit
  };
  std::vector<Progress> progress(cells.size());
  {
    engine::BatchConfig batch;
    batch.tasks = spec.tasks;
    batch.arenas = std::span<sinr::KernelArena>(arenas);
    batch.pairing = config_.pairing;
    // One pool for every (cell, instance) unit of the grid: cells overlap,
    // and this thread coordinates -- it collects completions, re-queues a
    // failed cell's units for its next attempt and writes the sidecar while
    // the workers keep running.  Arenas and the geometry cache are
    // overwrite-on-use and once-built, so a half-run attempt is invisible.
    engine::BatchPool pool(batch, std::max(1, std::min(threads, units)));
    std::vector<int> cell_of_batch;
    const auto submit = [&](int c) {
      Progress& p = progress[static_cast<std::size_t>(c)];
      const int attempt = p.outcome.attempts;
      SweepInstruments::Get().cell_attempts.Add();
      engine::BatchPool::Batch unit_batch;
      unit_batch.spec = &cells[static_cast<std::size_t>(c)].spec;
      unit_batch.geometry = p.geometry;
      if (config_.fault.Trips(c, attempt)) {
        unit_batch.fault_instance = 0;
        unit_batch.fault_message = "injected fault: cell " + std::to_string(c) +
                                   " attempt " + std::to_string(attempt);
      }
      cell_of_batch.push_back(c);
      pool.Submit(std::move(unit_batch), /*urgent=*/attempt > 1);
    };
    // A cell is final: trace it, free its geometry, checkpoint it.
    const auto finish = [&](int c, obs::Instant end) {
      Progress& p = progress[static_cast<std::size_t>(c)];
      const SweepCell& cell = cells[static_cast<std::size_t>(c)];
      obs::RecordSpan("cell." + cell.spec.name,
                      &SweepInstruments::Get().cell_ms, "cell", p.start, end);
      p.geometry = {};
      if (p.outcome.attempts > 1) {
        ++out.cells_retried;
        SweepInstruments::Get().cells_retried.Add();
      }
      if (!p.outcome.ok) {
        ++out.cells_failed;
        SweepInstruments::Get().cells_failed.Add();
        p.result = engine::ScenarioResult{};
        p.result.spec = cell.spec;
      } else if (checkpointing) {
        CheckpointCell saved;
        saved.index = c;
        saved.attempts = p.outcome.attempts;
        saved.instances = static_cast<int>(p.result.instances.size());
        saved.aggregate = p.result.aggregate;
        const auto at = std::ranges::lower_bound(save_doc.cells, c, {},
                                                 &CheckpointCell::index);
        save_doc.cells.insert(at, std::move(saved));
        save();
      }
    };

    // Dispatch in grid order: keys are adopted in that order, so the
    // cache's LRU accounting is the same under any schedule.
    int open = 0;
    for (const int c : fresh) {
      Progress& p = progress[static_cast<std::size_t>(c)];
      const engine::ScenarioSpec& cell_spec = cells[static_cast<std::size_t>(c)].spec;
      SweepInstruments::Get().cells.Add();
      // Invalid runtime input is a permanent failure: retrying a bad spec
      // cannot help.
      const Status valid = engine::ValidateScenarioSpec(cell_spec);
      if (!valid.ok()) {
        SweepInstruments::Get().cell_attempts.Add();
        p.outcome.ok = false;
        p.outcome.error = valid.ToString();
        p.start = obs::Now();
        finish(c, p.start);
        continue;
      }
      if (config_.reuse_geometry) p.geometry = geometry.Adopt(cell_spec);
      submit(c);
      ++open;
    }
    while (open > 0) {
      engine::BatchPool::Completion done = pool.Next();
      const int c = cell_of_batch[static_cast<std::size_t>(done.id)];
      Progress& p = progress[static_cast<std::size_t>(c)];
      CellOutcome& outcome = p.outcome;
      if (outcome.attempts == 1) p.start = done.start;
      // attempt_ms is the *final* attempt's first-unit-start to last-unit-
      // end: overwritten each round, so a retried cell reports the run that
      // produced its result.  Checkpoint writes happen outside it.
      outcome.attempt_ms = obs::RecordSpan("cell_attempt", nullptr, "cell",
                                           done.start, done.end);
      outcome.total_attempt_ms += outcome.attempt_ms;
      bool permanent = false;
      if (done.status.ok()) {
        const Status health = engine::AggregateHealth(done.result);
        outcome.ok = health.ok();
        outcome.error = health.ok() ? std::string() : health.ToString();
        // A poisoned aggregate is deterministic in the cell's inputs;
        // retrying replays the same NaN.
        permanent = !health.ok();
        p.result = std::move(done.result);
      } else {
        outcome.ok = false;
        outcome.error = done.status.ToString();
      }
      if (!outcome.ok && !permanent &&
          outcome.attempts < std::max(1, config_.max_attempts)) {
        ++outcome.attempts;
        submit(c);
        continue;
      }
      finish(c, done.end);
      --open;
    }
  }

  out.cells.reserve(listed);
  for (std::size_t i = 0; i < listed; ++i) {
    SweepCell& cell = cells[i];
    // Restored cell: rebuild its ScenarioResult from the sidecar.  Only
    // the aggregate and instance count are stored -- exactly the
    // deterministic surface SweepSignature reads.
    if (const CheckpointCell* rc = restored[i]) {
      engine::ScenarioResult result;
      result.spec = cell.spec;
      result.instances.resize(static_cast<std::size_t>(rc->instances));
      result.aggregate = rc->aggregate;
      CellOutcome outcome;
      outcome.attempts = rc->attempts;
      outcome.resumed = true;
      ++out.cells_resumed;
      SweepInstruments::Get().cells_resumed.Add();
      if (rc->attempts > 1) ++out.cells_retried;
      out.cells.push_back({std::move(cell), std::move(result), outcome});
      continue;
    }
    Progress& p = progress[i];
    if (p.outcome.ok) out.stage_stats.Merge(p.result.stage_stats);
    out.cells.push_back({std::move(cell), std::move(p.result), p.outcome});
  }
  if (unsaved) save();

  out.wall_ms = sweep_span.Finish();
  for (const sinr::KernelArena& arena : arenas) {
    out.arena_rebuilds += arena.rebuilds();
    out.arena_warm_skips += arena.warm_skips();
  }
  out.geometry_builds = geometry.builds();
  out.geometry_reuses = geometry.reuses();
  out.geometry_generation_hits = geometry.generation_hits();
  out.geometry_evictions = geometry.evictions();
  return out;
}

std::vector<SweepResult> SweepRunner::RunAll(
    std::span<const SweepSpec> specs) const {
  std::vector<SweepResult> results;
  results.reserve(specs.size());
  for (const SweepSpec& spec : specs) results.push_back(Run(spec));
  return results;
}

std::string SweepSignature(const SweepResult& result) {
  std::string out = "sweep " + result.spec.name + " axes=";
  for (std::size_t a = 0; a < result.spec.axes.size(); ++a) {
    const SweepAxis& axis = result.spec.axes[a];
    out += (a == 0 ? "" : ",") + axis.field + "[" +
           std::to_string(axis.values.size()) + "]";
  }
  out += " cells=" + std::to_string(result.cells.size()) + "\n";
  for (const SweepCellResult& cell : result.cells) {
    char buf[64];
    if (!cell.outcome.ok) {
      // Attempt counts are config-dependent (retry budget), so only the
      // failure itself and its message enter the signature.
      std::snprintf(buf, sizeof(buf), "cell %d failed", cell.cell.index);
      out += buf;
      out += " error=" + cell.outcome.error + "\n";
      continue;
    }
    std::snprintf(buf, sizeof(buf), "cell %d\n", cell.cell.index);
    out += buf;
    out += engine::AggregateSignature(std::span(&cell.result, 1));
  }
  return out;
}

long long SweepViolationCount(const SweepResult& result) {
  long long violations = 0;
  for (const SweepCellResult& cell : result.cells) {
    if (!cell.outcome.ok) continue;
    violations += engine::ViolationCount(std::span(&cell.result, 1));
  }
  return violations;
}

}  // namespace decaylib::sweep
