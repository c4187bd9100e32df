#include "engine/report.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/bench_harness.h"

namespace decaylib::engine {

std::string FmtFixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

const MetricSummary* FindAggregateMetric(const ScenarioResult& result,
                                         const std::string& name) {
  for (const auto& [key, m] : result.aggregate) {
    if (key == name && m.count > 0) return &m;
  }
  return nullptr;
}

void PrintMarkdownTable(const std::vector<std::string>& headers,
                        const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> width(headers.size());
  for (std::size_t c = 0; c < headers.size(); ++c) width[c] = headers[c].size();
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string cell = c < row.size() ? row[c] : "";
      line += ' ';
      line.append(width[c] - cell.size(), ' ');
      line += cell;
      line += " |";
    }
    std::printf("%s\n", line.c_str());
  };
  print_row(headers);
  std::string sep = "|";
  for (std::size_t c = 0; c < headers.size(); ++c) {
    sep += std::string(width[c] + 2, '-') + "|";
  }
  std::printf("%s\n", sep.c_str());
  for (const auto& row : rows) print_row(row);
}

std::vector<std::string> PopulatedMetrics(
    std::span<const ScenarioResult* const> results, bool headline_only) {
  std::vector<std::string> names;
  const auto keep_if_populated = [&](const std::string& name) {
    if (std::any_of(results.begin(), results.end(), [&](const auto* r) {
          return FindAggregateMetric(*r, name) != nullptr;
        })) {
      names.push_back(name);
    }
  };
  if (!headline_only) keep_if_populated("zeta");
  for (const AggregateMetric& metric : AggregateMetrics()) {
    if (!headline_only || metric.role == MetricRole::kHeadline) {
      keep_if_populated(metric.name);
    }
  }
  return names;
}

void PrintReport(std::span<const ScenarioResult> results) {
  std::vector<const ScenarioResult*> produced;
  for (const ScenarioResult& r : results) produced.push_back(&r);
  const std::vector<std::string> metrics = PopulatedMetrics(produced, true);
  const auto mean = [](const ScenarioResult& r, const std::string& name) {
    const MetricSummary* m = FindAggregateMetric(r, name);
    return m != nullptr ? FmtFixed(m->Mean()) : std::string("-");
  };
  std::vector<std::string> headers = {"scenario", "topology", "links", "inst",
                                      "zeta", "batch ms", "inst/s"};
  headers.insert(headers.end(), metrics.begin(), metrics.end());
  std::vector<std::vector<std::string>> rows;
  for (const ScenarioResult& r : results) {
    std::vector<std::string> row = {
        r.spec.name, r.spec.topology, std::to_string(r.spec.links),
        std::to_string(r.instances.size()), mean(r, "zeta"),
        FmtFixed(r.batch_wall_ms, 1), FmtFixed(r.Throughput(), 1)};
    for (const std::string& name : metrics) row.push_back(mean(r, name));
    rows.push_back(std::move(row));
  }
  PrintMarkdownTable(headers, rows);

  // Per-stage wall-time breakdown (worker-summed; totals can exceed batch
  // wall time when several workers overlap).
  std::vector<std::vector<std::string>> stage_rows;
  for (const ScenarioResult& r : results) {
    for (const obs::StageStats::Stage& s : r.stage_stats.stages) {
      stage_rows.push_back({r.spec.name, s.name, std::to_string(s.count),
                            FmtFixed(s.total_ms, 1), FmtFixed(s.MeanMs(), 3),
                            FmtFixed(s.min_ms, 3), FmtFixed(s.max_ms, 3)});
    }
  }
  if (!stage_rows.empty()) {
    std::printf("\nstage breakdown (worker-summed wall time)\n");
    PrintMarkdownTable({"scenario", "stage", "count", "total ms", "mean ms",
                        "min ms", "max ms"},
                       stage_rows);
  }

  std::printf("feasibility/validation violations: %lld\n",
              ViolationCount(results));
}

long long ViolationCount(std::span<const ScenarioResult> results) {
  long long violations = 0;
  for (const ScenarioResult& r : results) {
    for (const AggregateMetric& metric : AggregateMetrics()) {
      const MetricSummary* m = FindAggregateMetric(r, metric.name);
      if (metric.role == MetricRole::kViolation && m != nullptr) {
        violations += static_cast<long long>(m->sum);
      }
    }
  }
  return violations;
}

void RecordScenarioPhases(obs::BenchHarness& harness,
                          std::span<const ScenarioResult> results) {
  io::Json scenarios = io::Json::Array();
  for (const ScenarioResult& r : results) {
    const double task_ms = r.stage_stats.TotalMs("task.");
    harness.Record(r.spec.name + ".build_total", r.spec.links,
                   r.stage_stats.TotalMs() - task_ms);
    harness.Record(r.spec.name + ".tasks", r.spec.links, task_ms);

    io::Json entry = io::Json::Object();
    entry.Set("name", io::Json::String(r.spec.name));
    entry.Set("topology", io::Json::String(r.spec.topology));
    entry.Set("links", io::Json::Number(r.spec.links));
    entry.Set("instances",
              io::Json::Number(static_cast<double>(r.instances.size())));
    entry.Set("batch_wall_ms", io::Json::Number(r.batch_wall_ms));
    entry.Set("throughput_per_s", io::Json::Number(r.Throughput()));
    io::Json metrics = io::Json::Object();
    for (const auto& [name, m] : r.aggregate) {
      if (m.count == 0) continue;  // keep inf sentinels out of the file
      io::Json summary = io::Json::Object();
      summary.Set("sum", io::Json::Number(m.sum));
      summary.Set("mean", io::Json::Number(m.Mean()));
      summary.Set("min", io::Json::Number(m.min));
      summary.Set("max", io::Json::Number(m.max));
      summary.Set("count", io::Json::Number(static_cast<double>(m.count)));
      metrics.Set(name, std::move(summary));
    }
    entry.Set("metrics", std::move(metrics));
    io::Json stages = io::Json::Object();
    for (const obs::StageStats::Stage& s : r.stage_stats.stages) {
      if (s.count <= 0) continue;  // keep inf sentinels out of the file
      io::Json stage = io::Json::Object();
      stage.Set("count", io::Json::Number(static_cast<double>(s.count)));
      stage.Set("total_ms", io::Json::Number(s.total_ms));
      stage.Set("min_ms", io::Json::Number(s.min_ms));
      stage.Set("max_ms", io::Json::Number(s.max_ms));
      stages.Set(s.name, std::move(stage));
    }
    entry.Set("stages", std::move(stages));
    scenarios.Append(std::move(entry));
  }
  harness.SetExtra("scenarios", std::move(scenarios));
}

bool WriteJsonReport(const std::string& id,
                     std::span<const ScenarioResult> results) {
  obs::BenchHarness harness(
      id, obs::BenchHarness::Options{.write_json = true});
  RecordScenarioPhases(harness, results);
  return harness.Close() == 0;
}

}  // namespace decaylib::engine
