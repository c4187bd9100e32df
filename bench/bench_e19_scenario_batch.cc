// E19 -- scenario engine: batched multi-instance throughput over warm
// kernel caches.
//
// Pushes every builtin deployment scenario (uniform, clustered hotspots,
// highway corridor, heterogeneous-power grid, symmetric and asymmetric
// shadowing -- six distinct kinds) through one engine::BatchRunner: each
// instance's sinr::KernelCache is built once and Algorithm 1, the greedy
// baseline, weighted capacity, the Lemma 4.1 partition and full scheduling
// all run against the warm cache.  Reports per-scenario and aggregate
// batched throughput (instances/sec) and verifies that the deterministic
// aggregate report is bit-identical between the single-threaded and pooled
// runs before any number is quoted (exit 1 on divergence).
//
// Flags: --links <n per instance> (default 96), --instances <per scenario>
//        (default 6), --threads <pool size> (default hardware), plus the
//        obs::BenchHarness flags --json (write BENCH_E19.json, schema v2:
//        per-scenario batch/build_total/tasks phases, pooled/serial walls,
//        and a "scenarios" aggregate block), --reps/--warmup/--min-time-ms.
//
// Run in a Release build; the Assert build's DL_CHECK instrumentation
// dominates the kernel builds.
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/batch_runner.h"
#include "engine/report.h"
#include "engine/scenario.h"
#include "obs/bench_harness.h"
#include "tool_args.h"

using namespace decaylib;

int main(int argc, char** argv) {
  int links = 96;
  int instances = 6;
  int threads = 0;
  bool parse_ok = true;
  for (int i = 1; i < argc && parse_ok; ++i) {
    if (std::strcmp(argv[i], "--links") == 0 && i + 1 < argc) {
      parse_ok = tools::ParseIntFlag("--links", argv[++i], 2, 1 << 16, &links);
    } else if (std::strcmp(argv[i], "--instances") == 0 && i + 1 < argc) {
      parse_ok = tools::ParseIntFlag("--instances", argv[++i], 1, 1 << 20,
                                     &instances);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      parse_ok =
          tools::ParseIntFlag("--threads", argv[++i], 1, 1 << 16, &threads);
    } else {
      bool harness_flag_value = false;
      if (obs::BenchHarness::IsHarnessFlag(argv[i], &harness_flag_value)) {
        if (harness_flag_value) ++i;  // the harness validates the value
      } else {
        parse_ok = false;
      }
    }
  }
  obs::BenchHarness report("E19", argc, argv);
  if (!parse_ok || !report.args_ok()) {
    std::fprintf(stderr,
                 "usage: %s [--links N] [--instances K] [--threads T] "
                 "[--json] [--reps N] [--warmup N] [--min-time-ms T]\n",
                 argv[0]);
    return 2;
  }

  bench::Banner("E19", "Scenario engine: batched multi-instance runner",
                "many heterogeneous deployments run through one warm-cache "
                "batch; aggregates are thread-count invariant");

  std::vector<engine::ScenarioSpec> specs = engine::BuiltinScenarios();
  for (engine::ScenarioSpec& spec : specs) {
    spec.links = links;
    spec.instances = instances;
  }
  std::printf("\n%zu scenario kinds x %d instances x %d links\n\n",
              specs.size(), instances, links);

  engine::BatchConfig pooled;
  // Pin the PR-2 task set (everything except kPowerControl, which joined
  // AllTasks later): BENCH_E19.json is a longitudinal throughput record,
  // and growing its workload would read as a perf regression.  The
  // power-control oracle is timed by E18's power_control_greedy phase,
  // which CI's bench_compare step gates.
  pooled.tasks = {engine::TaskKind::kAlgorithm1,
                  engine::TaskKind::kGreedyBaseline,
                  engine::TaskKind::kWeighted,
                  engine::TaskKind::kPartitions,
                  engine::TaskKind::kSchedule};
  // An explicit --threads is honoured for the quoted pooled timing; the
  // default pins at least 4 workers so the determinism check below
  // compares genuinely different interleavings even on single-core
  // machines.
  if (threads > 0) {
    pooled.threads = threads;
  } else {
    const unsigned hc = std::thread::hardware_concurrency();
    pooled.threads = static_cast<int>(hc > 4 ? hc : 4);
  }
  std::printf("pooled run: %d worker threads\n", pooled.threads);
  std::vector<engine::ScenarioResult> results;
  const double pooled_ms =
      report
          .Time("pooled_wall",
                static_cast<long long>(specs.size()) * instances,
                [&] { results = engine::BatchRunner(pooled).Run(specs); })
          .min_ms;

  engine::BatchConfig serial = pooled;
  serial.threads = 1;
  std::vector<engine::ScenarioResult> reference;
  const double serial_ms =
      report
          .Time("serial_wall",
                static_cast<long long>(specs.size()) * instances,
                [&] { reference = engine::BatchRunner(serial).Run(specs); })
          .min_ms;

  const bool gate_meaningful = pooled.threads > 1;
  if (gate_meaningful && engine::AggregateSignature(results) !=
                             engine::AggregateSignature(reference)) {
    std::printf(
        "ERROR: aggregate report differs between thread counts -- the "
        "batch runner is not deterministic\n");
    return 1;
  }

  engine::PrintReport(results);

  const double total_instances =
      static_cast<double>(specs.size()) * static_cast<double>(instances);
  std::printf(
      "\naggregate throughput: %s instances/s pooled (%s ms), "
      "%s instances/s single-threaded (%s ms)\n",
      bench::Fmt(1000.0 * total_instances / pooled_ms, 1).c_str(),
      bench::Fmt(pooled_ms, 1).c_str(),
      bench::Fmt(1000.0 * total_instances / serial_ms, 1).c_str(),
      bench::Fmt(serial_ms, 1).c_str());
  if (gate_meaningful) {
    std::printf("aggregates bit-identical across thread counts: yes\n");
  } else {
    std::printf(
        "determinism check skipped: --threads 1 makes both runs serial\n");
  }

  // Three phases per scenario (batch wall / worker-summed build time -- the
  // geometry, metricity and kernel stages together -- / task time, the
  // longitudinal throughput record), plus the deterministic aggregates as
  // the "scenarios" extra member.
  engine::RecordScenarioPhases(report, results);
  return report.Close();
}
