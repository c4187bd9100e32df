// Report sinks for parameter-grid sweeps: per-cell and per-axis frontier
// tables for humans, CSV (io/csv) for plotting, and BENCH_<id>.json -- a
// BENCH schema v2 record via obs::BenchHarness -- for the perf-trajectory
// tooling.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sweep/sweep_runner.h"

namespace decaylib::sweep {

// Per-cell table (axis coordinates + the means of the headline metrics
// some cell produced, engine::PopulatedMetrics) followed by one frontier
// table per axis: for each axis value, the mean of each headline metric
// marginalised over every other axis -- the 1-D curves the paper plots,
// read straight off the grid.
void PrintSweepReport(const SweepResult& result);

// CSV export: one row per cell.  Columns: sweep, cell, one column per axis
// field, links/instances context columns (skipped when an axis already
// carries them -- no duplicate header names), ok/attempts/error, then
// "<metric>_mean" for every aggregate metric some cell produced, in
// aggregate order (engine::PopulatedMetrics).
std::vector<std::string> SweepCsvHeader(const SweepResult& result);
std::vector<std::vector<std::string>> SweepCsvRows(const SweepResult& result);
bool WriteSweepCsvFile(const SweepResult& result, const std::string& path);

// Writes BENCH_<id>.json over the flattened cell results (one phase pair
// per cell, plus the "scenarios" aggregate array), exactly the
// engine::WriteJsonReport schema-v2 format (obs/bench_harness.h).
bool WriteSweepJsonReport(const std::string& id,
                          std::span<const SweepResult> results);

}  // namespace decaylib::sweep
