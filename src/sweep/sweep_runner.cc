#include "sweep/sweep_runner.h"

#include <algorithm>
#include <cstdio>
#include <ranges>
#include <utility>

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
// wherever populated.  Anything else would splice in a signature no run
// produces.
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
    out.stage_stats.Record("resume_restore", restore_span.Finish());
  }

  // The checkpoint being (re)written this run: starts from the restored
  // cells so a resume-of-a-resume keeps accumulating.
  SweepCheckpoint save_doc;
  save_doc.sweep = spec.name;
  save_doc.spec_hash = hash;
  save_doc.grid = static_cast<long long>(cells.size());
  const bool checkpointing = !config_.checkpoint_path.empty();
  // Saved after every completed cell and once more at the end.
  const auto save = [&] {
    if (!checkpointing) return;
    // Timed separately from cell attempts (CellOutcome::attempt_ms), so
    // checkpointed cells don't report sidecar I/O as batch time.
    obs::Span save_span("checkpoint_write",
                        &SweepInstruments::Get().checkpoint_write_ms, "sweep");
    core::ThrowIfError(SaveCheckpoint(config_.checkpoint_path, save_doc));
    out.stage_stats.Record("checkpoint_write", save_span.Finish());
    SweepInstruments::Get().checkpoint_writes.Add();
  };

  out.cells.reserve(cells.size());
  int fresh_cells = 0;  // executed (non-restored) cells, for halt_after
  bool halted = false;
  for (SweepCell& cell : cells) {
    const int index = cell.index;

    // Restored cell: rebuild its ScenarioResult from the sidecar.  Only
    // the aggregate and instance count are stored -- exactly the
    // deterministic surface SweepSignature reads.
    if (const CheckpointCell* rc = restored[static_cast<std::size_t>(index)]) {
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
      save_doc.cells.push_back(*rc);
      out.cells.push_back({std::move(cell), std::move(result), outcome});
      continue;
    }

    if (halted) break;

    CellOutcome outcome;
    engine::ScenarioResult result;
    obs::Span cell_span("cell." + cell.spec.name,
                        &SweepInstruments::Get().cell_ms, "cell");
    SweepInstruments::Get().cells.Add();
    for (int attempt = 1;; ++attempt) {
      outcome.attempts = attempt;
      obs::Span attempt_span("cell_attempt", nullptr, "cell");
      SweepInstruments::Get().cell_attempts.Add();
      // Per-cell BatchRunner: the fault plan arms instance 0 of the
      // targeted cell for this attempt only, and a throwing cell cannot
      // leave state behind in the runner (arenas and the geometry cache
      // are overwrite-on-use, so a half-run attempt is invisible).
      engine::BatchConfig batch;
      batch.threads = threads;
      batch.tasks = spec.tasks;
      batch.arenas = std::span<sinr::KernelArena>(arenas);
      batch.geometry = config_.reuse_geometry ? &geometry : nullptr;
      batch.pairing = config_.pairing;
      if (config_.fault.Trips(index, attempt)) {
        batch.fault_instance = 0;
        batch.fault_message = "injected fault: cell " + std::to_string(index) +
                              " attempt " + std::to_string(attempt);
      }
      bool permanent = false;
      try {
        result = engine::BatchRunner(batch).RunOne(cell.spec);
        const Status health = engine::AggregateHealth(result);
        if (health.ok()) {
          outcome.ok = true;
          outcome.error.clear();
        } else {
          // A poisoned aggregate is deterministic in the cell's inputs;
          // retrying replays the same NaN.
          outcome.ok = false;
          outcome.error = health.ToString();
          permanent = true;
        }
      } catch (const StatusError& e) {
        outcome.ok = false;
        outcome.error = e.status().ToString();
        permanent = e.status().code() == core::StatusCode::kInvalidArgument;
      } catch (const std::exception& e) {
        outcome.ok = false;
        outcome.error = e.what();
      } catch (...) {
        outcome.ok = false;
        outcome.error = "unknown exception";
      }
      // attempt_ms is the *final* attempt's wall time: overwritten each
      // round, so a retried cell reports the run that produced its result.
      // Checkpoint writes happen outside this window (see save).
      outcome.attempt_ms = attempt_span.Finish();
      outcome.total_attempt_ms += outcome.attempt_ms;
      if (outcome.ok || permanent ||
          attempt >= std::max(1, config_.max_attempts)) {
        break;
      }
    }

    if (outcome.attempts > 1) {
      ++out.cells_retried;
      SweepInstruments::Get().cells_retried.Add();
    }
    if (outcome.ok) out.stage_stats.Merge(result.stage_stats);
    if (!outcome.ok) {
      ++out.cells_failed;
      SweepInstruments::Get().cells_failed.Add();
      result = engine::ScenarioResult{};
      result.spec = cell.spec;
    } else if (checkpointing) {
      CheckpointCell saved;
      saved.index = index;
      saved.attempts = outcome.attempts;
      saved.instances = static_cast<int>(result.instances.size());
      saved.aggregate = result.aggregate;
      save_doc.cells.push_back(std::move(saved));
      save();
    }
    out.cells.push_back({std::move(cell), std::move(result), outcome});

    ++fresh_cells;
    if (config_.halt_after_cells > 0 &&
        fresh_cells >= config_.halt_after_cells) {
      // Simulated kill: later restored cells still append (they cost
      // nothing), but no further cell executes.
      halted = true;
    }
  }
  save();

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
