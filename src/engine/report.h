// Report sinks for batched scenario runs: human-readable markdown tables
// and a machine-readable BENCH_<id>.json record in the schema-v2 format of
// obs/bench_harness.h.
//
// The record carries one phase per scenario for batch wall / kernel build /
// task time (each phase keeps the v1 "name"/"n"/"wall_ms" keys old parsers
// read), a provenance block, and a "scenarios" extra member with the
// deterministic aggregates -- an extra key schema-v2 parsers ignore, the
// same way v1 parsers ignore the v2 keys.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "engine/batch_runner.h"
#include "io/json.h"

namespace decaylib::obs {
class BenchHarness;
}  // namespace decaylib::obs

namespace decaylib::engine {

// Fixed-point formatting helper shared by the report layers.
std::string FmtFixed(double v, int digits = 2);

// Looks a named metric up in a result's aggregate; nullptr when absent or
// empty (count == 0).
const MetricSummary* FindAggregateMetric(const ScenarioResult& result,
                                         const std::string& name);

// Prints a right-aligned markdown table (also used by the sweep reports).
void PrintMarkdownTable(const std::vector<std::string>& headers,
                        const std::vector<std::vector<std::string>>& rows);

// The aggregate metrics some result populated (count > 0), in aggregate
// order -- zeta, then the rows of AggregateMetrics() -- or, with
// `headline_only`, only the headline rows: the metric columns of
// PrintReport, the sweep tables and the sweep CSV.
std::vector<std::string> PopulatedMetrics(
    std::span<const ScenarioResult* const> results, bool headline_only);

// Prints one markdown table over all scenarios (spec context, the mean of
// each headline column, batch wall time and throughput), the per-stage
// wall-time breakdown, and the violation count.
void PrintReport(std::span<const ScenarioResult> results);

// Total number of feasibility/validation violations across all scenarios:
// the sums of the violation rows of AggregateMetrics().  Anything non-zero
// means an algorithm produced an infeasible set or an invalid schedule.
long long ViolationCount(std::span<const ScenarioResult> results);

// Records three phases per scenario into `harness` -- <name>.batch (batch
// wall time), <name>.build_total (worker-summed geometry and kernel stages)
// and <name>.tasks (worker-summed task.<kind> stages) -- and attaches the
// "scenarios" extra member: per scenario its name, topology, links,
// instances, throughput, non-empty metric summaries and stage wall-time
// totals.
void RecordScenarioPhases(obs::BenchHarness& harness,
                          std::span<const ScenarioResult> results);

// Writes BENCH_<id>.json (schema v2, re-parse-validated through io::Json)
// in the working directory.  Returns false (and prints to stderr) when the
// file cannot be written or fails validation.
bool WriteJsonReport(const std::string& id,
                     std::span<const ScenarioResult> results);

}  // namespace decaylib::engine
