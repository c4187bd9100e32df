#include "sweep/sweep_report.h"

#include <cstdio>
#include <utility>

#include "engine/report.h"
#include "io/csv.h"

namespace decaylib::sweep {

namespace {

using engine::FindAggregateMetric;
using engine::FmtFixed;
using engine::PrintMarkdownTable;

// The aggregate metrics some cell populated (engine::PopulatedMetrics).
std::vector<std::string> CellMetrics(const SweepResult& result,
                                     bool headline_only) {
  std::vector<const engine::ScenarioResult*> produced;
  for (const SweepCellResult& cell : result.cells) {
    produced.push_back(&cell.result);
  }
  return engine::PopulatedMetrics(produced, headline_only);
}

}  // namespace

void PrintSweepReport(const SweepResult& result) {
  const std::vector<std::string> metrics = CellMetrics(result, true);

  std::printf("sweep %s: %zu cells, %s cells/s (%.1f ms",
              result.spec.name.c_str(), result.cells.size(),
              FmtFixed(result.CellsPerSecond(), 2).c_str(), result.wall_ms);
  if (result.arena_rebuilds > 0) {
    std::printf(", %lld kernels through arenas", result.arena_rebuilds);
  }
  if (result.geometry_builds > 0 || result.geometry_reuses > 0) {
    std::printf(", %lld geometries built / %lld reused",
                result.geometry_builds, result.geometry_reuses);
  }
  std::printf(")\n");
  if (result.cells_failed > 0 || result.cells_retried > 0 ||
      result.cells_resumed > 0) {
    std::printf("robustness: %d failed, %d retried, %d resumed\n",
                result.cells_failed, result.cells_retried,
                result.cells_resumed);
  }
  // Cache effectiveness: how much of the grid's instance generation and
  // kernel allocation was served warm.
  const long long geometry_total =
      result.geometry_builds + result.geometry_reuses;
  if (geometry_total > 0 || result.arena_rebuilds > 0) {
    std::printf("caches:");
    if (geometry_total > 0) {
      std::printf(" geometry hit rate %.1f%% (%lld/%lld served warm)",
                  100.0 * static_cast<double>(result.geometry_reuses) /
                      static_cast<double>(geometry_total),
                  result.geometry_reuses, geometry_total);
    }
    if (result.arena_rebuilds > 0) {
      std::printf("%s arena %lld rebuilds / %lld warm skips (%.1f%%)",
                  geometry_total > 0 ? "," : "", result.arena_rebuilds,
                  result.arena_warm_skips,
                  100.0 * static_cast<double>(result.arena_warm_skips) /
                      static_cast<double>(result.arena_rebuilds));
    }
    if (result.geometry_generation_hits > 0 || result.geometry_evictions > 0) {
      std::printf(", %lld generation hits / %lld evictions",
                  result.geometry_generation_hits, result.geometry_evictions);
    }
    std::printf("\n");
  }
  const double checkpoint_write_ms =
      result.stage_stats.TotalMs("checkpoint_write");
  const double resume_restore_ms = result.stage_stats.TotalMs("resume_restore");
  if (checkpoint_write_ms > 0.0 || resume_restore_ms > 0.0) {
    std::printf("checkpointing: %.1f ms writing, %.1f ms restoring\n",
                checkpoint_write_ms, resume_restore_ms);
  }
  std::printf("\n");

  // Per-cell table: axis coordinates + headline means (+ a status column
  // once any cell failed, so a partial grid is visibly partial).
  const bool show_status = result.cells_failed > 0;
  std::vector<std::string> headers = {"cell"};
  for (const SweepAxis& axis : result.spec.axes) headers.push_back(axis.field);
  if (show_status) headers.push_back("status");
  for (const std::string& name : metrics) headers.push_back(name);
  std::vector<std::vector<std::string>> rows;
  for (const SweepCellResult& cell : result.cells) {
    std::vector<std::string> row = {std::to_string(cell.cell.index)};
    for (std::size_t a = 0; a < result.spec.axes.size(); ++a) {
      row.push_back(FormatAxisValue(result.spec.axes[a].values[
          static_cast<std::size_t>(cell.cell.coords[a])]));
    }
    if (show_status) row.push_back(cell.outcome.ok ? "ok" : "failed");
    for (const std::string& name : metrics) {
      const engine::MetricSummary* m = FindAggregateMetric(cell.result, name);
      row.push_back(m != nullptr ? FmtFixed(m->Mean()) : "-");
    }
    rows.push_back(std::move(row));
  }
  PrintMarkdownTable(headers, rows);
  for (const SweepCellResult& cell : result.cells) {
    if (!cell.outcome.ok) {
      std::printf("cell %d failed after %d attempt%s: %s\n", cell.cell.index,
                  cell.outcome.attempts, cell.outcome.attempts == 1 ? "" : "s",
                  cell.outcome.error.c_str());
    }
  }

  // Per-cell timing: the wall time of the attempt that produced each cell's
  // result, split by stage.  Stage totals are worker-summed, so with more
  // than one worker they legitimately exceed the attempt wall time (and
  // match it, up to clock overhead, at 1 thread).  Resumed cells executed
  // nothing and are skipped.
  std::vector<std::vector<std::string>> timing_rows;
  for (const SweepCellResult& cell : result.cells) {
    if (!cell.outcome.ok || cell.outcome.resumed) continue;
    const obs::StageStats& stats = cell.result.stage_stats;
    if (stats.empty()) continue;
    const double geometry_ms = stats.TotalMs("geometry_");
    const double kernel_ms =
        stats.TotalMs("kernel_build") + stats.TotalMs("farfield_build");
    const double task_ms = stats.TotalMs("task.");
    timing_rows.push_back(
        {std::to_string(cell.cell.index), std::to_string(cell.outcome.attempts),
         FmtFixed(cell.outcome.attempt_ms, 1),
         FmtFixed(cell.outcome.total_attempt_ms, 1), FmtFixed(geometry_ms, 1),
         FmtFixed(kernel_ms, 1), FmtFixed(task_ms, 1),
         FmtFixed(stats.TotalMs(), 1)});
  }
  if (!timing_rows.empty()) {
    std::printf("\nper-cell timing (final attempt; stage totals worker-summed)\n");
    PrintMarkdownTable({"cell", "attempts", "attempt ms", "all attempts ms",
                        "geometry ms", "kernel ms", "task ms", "stages ms"},
                       timing_rows);
  }

  // One frontier table per axis: the 1-D mean curve of each headline
  // metric along that axis, marginalised over all other axes.
  for (std::size_t a = 0; a < result.spec.axes.size(); ++a) {
    const SweepAxis& axis = result.spec.axes[a];
    std::printf("\nfrontier along %s:\n", axis.field.c_str());
    std::vector<std::string> fheaders = {axis.field, "cells"};
    for (const std::string& name : metrics) fheaders.push_back(name);
    std::vector<std::vector<std::string>> frows;
    for (std::size_t k = 0; k < axis.values.size(); ++k) {
      std::vector<std::string> row = {FormatAxisValue(axis.values[k]), ""};
      int matching = 0;
      std::vector<engine::MetricSummary> pooled(metrics.size());
      for (const SweepCellResult& cell : result.cells) {
        if (cell.cell.coords[a] != static_cast<int>(k)) continue;
        ++matching;
        for (std::size_t m = 0; m < metrics.size(); ++m) {
          const engine::MetricSummary* summary =
              FindAggregateMetric(cell.result, metrics[m]);
          if (summary != nullptr) {
            pooled[m].sum += summary->sum;
            pooled[m].count += summary->count;
          }
        }
      }
      row[1] = std::to_string(matching);
      for (const engine::MetricSummary& p : pooled) {
        row.push_back(p.count > 0 ? FmtFixed(p.Mean()) : "-");
      }
      frows.push_back(std::move(row));
    }
    PrintMarkdownTable(fheaders, frows);
  }
}

namespace {

bool HasAxis(const SweepSpec& spec, const std::string& field) {
  for (const SweepAxis& axis : spec.axes) {
    if (axis.field == field) return true;
  }
  return false;
}

// The CSV columns with the metric columns `metrics`.
std::vector<std::string> CsvHeader(const SweepResult& result,
                                   const std::vector<std::string>& metrics) {
  std::vector<std::string> header = {"sweep", "cell"};
  for (const SweepAxis& axis : result.spec.axes) header.push_back(axis.field);
  // links/instances context columns, except when the axis columns already
  // carry them (a duplicated header name would mangle CSV consumers).
  if (!HasAxis(result.spec, "links")) header.push_back("links");
  if (!HasAxis(result.spec, "instances")) header.push_back("instances");
  // Robustness columns: every row says whether its cell completed, how
  // many attempts it took, and (failed rows only) the error text.
  header.push_back("ok");
  header.push_back("attempts");
  header.push_back("error");
  for (const std::string& name : metrics) header.push_back(name + "_mean");
  return header;
}

// The CSV rows for CsvHeader(result, metrics).
std::vector<std::vector<std::string>> CsvRows(
    const SweepResult& result, const std::vector<std::string>& metrics) {
  const bool links_column = !HasAxis(result.spec, "links");
  const bool instances_column = !HasAxis(result.spec, "instances");
  std::vector<std::vector<std::string>> rows;
  rows.reserve(result.cells.size());
  char buf[64];
  for (const SweepCellResult& cell : result.cells) {
    std::vector<std::string> row = {result.spec.name,
                                    std::to_string(cell.cell.index)};
    for (std::size_t a = 0; a < result.spec.axes.size(); ++a) {
      row.push_back(FormatAxisValue(result.spec.axes[a].values[
          static_cast<std::size_t>(cell.cell.coords[a])]));
    }
    if (links_column) row.push_back(std::to_string(cell.result.spec.links));
    if (instances_column) {
      row.push_back(std::to_string(cell.result.instances.size()));
    }
    row.push_back(cell.outcome.ok ? "1" : "0");
    row.push_back(std::to_string(cell.outcome.attempts));
    row.push_back(cell.outcome.ok ? "" : cell.outcome.error);
    for (const std::string& name : metrics) {
      const engine::MetricSummary* m = FindAggregateMetric(cell.result, name);
      if (m != nullptr) {
        std::snprintf(buf, sizeof(buf), "%.10g", m->Mean());
        row.push_back(buf);
      } else {
        row.push_back("");
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

std::vector<std::string> SweepCsvHeader(const SweepResult& result) {
  return CsvHeader(result, CellMetrics(result, false));
}

std::vector<std::vector<std::string>> SweepCsvRows(const SweepResult& result) {
  return CsvRows(result, CellMetrics(result, false));
}

bool WriteSweepCsvFile(const SweepResult& result, const std::string& path) {
  const std::vector<std::string> metrics = CellMetrics(result, false);
  const std::vector<std::string> header = CsvHeader(result, metrics);
  const std::vector<std::vector<std::string>> rows = CsvRows(result, metrics);
  if (!io::WriteCsvTableFile(header, rows, path)) {
    std::fprintf(stderr, "WriteSweepCsvFile: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu cells)\n", path.c_str(), rows.size());
  return true;
}

bool WriteSweepJsonReport(const std::string& id,
                          std::span<const SweepResult> results) {
  std::vector<engine::ScenarioResult> flat;
  for (const SweepResult& sweep : results) {
    for (const SweepCellResult& cell : sweep.cells) {
      if (!cell.outcome.ok) continue;  // failed cells carry no aggregates
      flat.push_back(cell.result);
    }
  }
  return engine::WriteJsonReport(id, flat);
}

}  // namespace decaylib::sweep
