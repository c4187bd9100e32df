// engine_bench -- the engine-level benchmark program (see README.md).
//
//   engine_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--setup-s <s>] [--spawned-at <ns>] [--work-dir <dir>]
//
// --trace 0 times the workload end to end through the public engine API
// with tracing off: whole runs repeat for --seconds and the median
// instances/s is reported.  --spawned-at <ns> turns the process into a
// set-up-only probe that prints how long it took from being spawned to
// finishing set-up; run.py takes the median of several probes and hands it
// to the measured process as --setup-s.
// --trace 1 runs the workload once pooled (the reference records) and once
// on one thread untraced (the tracing-overhead base), then replays it one
// layer call at a time with spans on (replay.h), writes the Perfetto trace
// into --work-dir and reports the per-layer metrics.
//
// Correctness gate, both modes: no failed instance or cell, zero
// violations, and every run's signature identical.  At the workload's
// default seed the signature digest must match the one pinned in
// workloads.cc; at any other seed the end-to-end mode instead replays the
// first instance of every spec / cell, which must equal the engine's
// records.  The traced mode replays everything and always compares.
//
// Output: a table (metric, value, unit, how obtained), then as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exit status 1 when the run is incorrect, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "replay.h"
#include "workloads.h"

using namespace decaylib;
using namespace decaylib::enginebench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinRuns = 3;     // timed runs even when one exceeds --seconds

struct Args {
  std::string workload;
  unsigned long long seed = 1;
  double seconds = 10.0;
  int trace = 0;
  long long spawned_at_ns = 0;  // > 0: set-up-only probe (see main)
  double setup_s = 0.0;         // median of the probes, from run.py
  std::string work_dir = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] - '0';
    } else if (std::strcmp(flag, "--spawned-at") == 0) {
      args.spawned_at_ns = std::strtoll(value, &end, 10);
      if (*end != '\0' || args.spawned_at_ns <= 0) return false;
    } else if (std::strcmp(flag, "--setup-s") == 0) {
      args.setup_s = std::strtod(value, &end);
      if (*end != '\0' || !(args.setup_s > 0.0)) return false;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Collects the gate's verdicts; every failure is printed to stderr at once.
struct Gate {
  long long attempted = 0;
  long long failed = 0;

  // Charges `units` failed units when `problem` is non-empty.
  void Fail(const std::string& problem, long long units) {
    if (problem.empty()) return;
    std::fprintf(stderr, "engine_bench: INCORRECT: %s\n", problem.c_str());
    failed += units;
  }
  bool correct() const { return failed == 0; }
};

// The per-run checks: failures, violations, and agreement with `first`.
void CheckRun(const Job& job, const RunOutcome& run, const RunOutcome& first,
              Gate& gate) {
  if (run.failed > 0) {
    gate.Fail(std::to_string(run.failed) + " failed units: " + run.error,
              run.failed);
  } else if (run.violations > 0) {
    gate.Fail(std::to_string(run.violations) + " feasibility violations",
              job.units);
  } else if (&run != &first && run.signature != first.signature) {
    gate.Fail("signature differs between runs of the same job", job.units);
  }
}

// The signature digest pinned for the workload's default seed.
void CheckDigest(const Job& job, const WorkloadInfo& workload,
                 const RunOutcome& run, Gate& gate) {
  const std::string digest = Digest(run.signature);
  std::printf("signature digest: %s (expected %s)\n", digest.c_str(),
              workload.digest);
  if (digest != workload.digest) {
    gate.Fail("signature digest " + digest + " != expected '" +
                  workload.digest + "'",
              job.units);
  }
}

// A replay that differs from the engine fails every unit of the job.
void CheckReplay(const Job& job, const ReplayResult& replay, Gate& gate) {
  for (const std::string& m : replay.mismatches) gate.Fail(m, 0);
  if (!replay.mismatches.empty()) {
    gate.Fail("replay differs from the engine", job.units);
  }
}

void PrintTable(const std::vector<Metric>& rows) {
  std::printf("\n%-34s %18s  %-6s %s\n", "metric", "value", "unit", "how");
  for (const Metric& m : rows) {
    std::printf("%-34s %18.6f  %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.how.c_str());
  }
  std::printf("\n");
}

void PrintResult(const Gate& gate, const std::vector<Metric>& rows) {
  std::string json = "{\"correct\": ";
  json += gate.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted);
  json += ", \"failed\": " + std::to_string(gate.failed);
  json += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", rows[i].name.c_str(), rows[i].value,
                  rows[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// End to end, tracing off.
std::vector<Metric> RunEndToEnd(const Job& job, const WorkloadInfo& workload,
                                const Args& args, Gate& gate) {
  std::vector<double> rates;
  RunOutcome first;
  const Clock::time_point start = Clock::now();
  for (;;) {
    RunOutcome run = RunJob(job);
    gate.attempted += job.units;
    rates.push_back(1000.0 * static_cast<double>(job.instances) /
                    run.wall_ms);
    const bool is_first = rates.size() == 1;
    CheckRun(job, run, is_first ? run : first, gate);
    const double last_s = run.wall_ms / 1000.0;
    if (is_first) first = std::move(run);
    const int runs = static_cast<int>(rates.size());
    if (runs >= kMinRuns && SecondsSince(start) + last_s > args.seconds) {
      break;
    }
  }
  const double peak_rss_mb = PeakRssMb();
  // setup_s is measured by separate set-up-only processes (see main).
  const double setup_s = args.setup_s;
  std::printf("%zu timed runs of %lld instances (%lld units) in %.3f s\n",
              rates.size(), job.instances, job.units, SecondsSince(start));
  // A failed first run is already charged and has nothing to compare.
  if (first.failed == 0) {
    if (args.seed == workload.default_seed) {
      CheckDigest(job, workload, first, gate);
    } else {
      ReplayOptions options;
      options.instances_per_spec = 1;
      CheckReplay(job, Replay(job, first, options), gate);
    }
  }

  const std::vector<Metric> rows = {
      {"instances_per_s", Median(rates), "1/s", "measured"},
      {"peak_rss_mb", peak_rss_mb, "MB", "measured"},
      {"setup_s", setup_s, "s",
       setup_s > 0.0 ? "measured" : "not measured (see run.py)"}};
  // failed_frac is printed but travels in the result as the attempted /
  // failed pair: a metric that is 0 on every correct run has no median to
  // bound.
  std::vector<Metric> printed = rows;
  printed.push_back({"failed_frac",
                     static_cast<double>(gate.failed) /
                         static_cast<double>(gate.attempted),
                     "ratio", "counted"});
  PrintTable(printed);
  return rows;
}

// Reference runs, then the traced layer-by-layer replay.
std::vector<Metric> RunTraced(const Job& job, const WorkloadInfo& workload,
                              const Args& args, Gate& gate) {
  const RunOutcome pooled = RunJob(job);
  CheckRun(job, pooled, pooled, gate);
  // The full replay below is the comparison at every seed; the digest is
  // checked too where one is pinned.
  if (pooled.failed == 0 && args.seed == workload.default_seed) {
    CheckDigest(job, workload, pooled, gate);
  }
  const RunOutcome serial = RunJob(job, /*threads=*/1);
  CheckRun(job, serial, pooled, gate);

  ReplayOptions options;
  options.trace = true;
  options.checkpoint_path =
      (std::filesystem::path(args.work_dir) / "replay.ckpt.json").string();
  const ReplayResult replay = Replay(job, pooled, options);
  std::filesystem::remove(options.checkpoint_path);
  gate.attempted += job.units;
  CheckReplay(job, replay, gate);

  std::filesystem::create_directories(args.work_dir);
  const std::string trace_path =
      (std::filesystem::path(args.work_dir) /
       ("trace_" + job.workload + "_seed" + std::to_string(args.seed) +
        ".json"))
          .string();
  const core::Status written = obs::TraceSink::Global().WriteFile(trace_path);
  if (!written.ok()) {
    gate.Fail(written.ToString(), 0);
  } else {
    std::printf("trace: %s (%zu events)\n", trace_path.c_str(),
                obs::TraceSink::Global().EventCount());
  }
  std::printf("untraced single-thread run %.3f ms, traced replay %.3f ms "
              "(%lld instances)\n",
              serial.wall_ms, replay.wall_ms, replay.instances);

  std::vector<Metric> rows = LayerMetrics(replay, serial.wall_ms);
  PrintTable(rows);
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--setup-s <s>] [--spawned-at <ns>] "
                 "[--work-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadInfo* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "engine_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  try {
    // Set-up: spec construction and expansion, validation, runner
    // configuration, checkpoint-path setup.
    const Job job = MakeJob(*workload, args.seed, args.work_dir);
    if (args.spawned_at_ns > 0) {
      // Set-up-only probe: the time from the parent's spawn call (a
      // CLOCK_MONOTONIC reading, the clock steady_clock reads here) to the
      // end of set-up -- exec, loading, static initialisation and the
      // set-up above.  run.py runs several probes before the measured
      // process and passes their median back in as --setup-s.
      const long long now_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Clock::now().time_since_epoch())
              .count();
      std::printf("setup_s %.9f\n",
                  static_cast<double>(now_ns - args.spawned_at_ns) * 1e-9);
      return 0;
    }
    std::printf("workload %s seed %llu: %lld instances, %lld units per run\n",
                args.workload.c_str(), args.seed, job.instances, job.units);

    Gate gate;
    const std::vector<Metric> rows =
        args.trace == 0
            ? RunEndToEnd(job, *workload, args, gate)
            : RunTraced(job, *workload, args, gate);
    std::filesystem::remove(job.sweep.checkpoint_path);
    PrintResult(gate, rows);
    return gate.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "engine_bench: %s\n", e.what());
    return 1;
  }
}
