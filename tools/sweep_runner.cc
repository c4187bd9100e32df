// sweep_runner: run parameter-grid sweeps through the batch engine over
// shared kernel arenas.
//
//   $ sweep_runner --list
//   $ sweep_runner [--sweep NAME] [--instances K] [--alpha A] [--beta B]
//                  [--lambda L] [--scheduler S] [--threads T] [--no-arena]
//                  [--no-geometry-cache] [--geometry-generations G]
//                  [--axis FIELD=V1,V2,...]
//                  [--checkpoint PATH] [--resume] [--retries K] [--strict]
//                  [--halt-after N] [--fail-cell I] [--fail-attempts K]
//                  [--csv] [--json] [--trace FILE] [--metrics FILE]
//
// Without --sweep, every builtin sweep runs.  --instances / --alpha /
// --beta / --lambda / --scheduler override the base spec's fields through
// the engine's field table (engine::ScenarioFields(): parsed by the field's
// type, range-checked with the library's message); overriding a field the
// sweep sweeps as an axis is a usage error.  --threads sizes the per-cell
// worker pool (>= 1); --no-arena disables cross-instance kernel-arena reuse
// and --no-geometry-cache disables cross-cell geometry reuse (both for A/B
// timing; results are bit-identical either way);
// --geometry-generations G deepens the geometry cache's LRU to G key
// generations (default 1; engine::GeometryCache), which turns interleaved
// geometry keys into warm hits without changing any result.  --csv writes
// SWEEP_<name>.csv per sweep (io/csv table format, one row per cell);
// --json writes BENCH_SWEEP.json over all cells (a BENCH schema v2 record
// via obs::BenchHarness, the engine report format).
//
// Robustness flags (docs/robustness.md):
//  * --axis FIELD=V1,V2,... appends an axis to every selected sweep; an
//    unknown field or out-of-range value is a clean CLI error listing the
//    sweepable fields (validation via sweep::ValidateSweepSpec), not an
//    abort;
//  * --checkpoint PATH persists completed cells; with --resume, a partial
//    sidecar restores them bit-exactly and only the remainder runs;
//  * --retries K sets attempts per cell (default 2); failed cells are
//    isolated, reported, and exit non-zero only under --strict;
//  * --halt-after N stops after N fresh cells (simulated kill, for resume
//    drills); --fail-cell I / --fail-attempts K arm the deterministic
//    fault-injection plan (K = -1 fails every attempt).
//
// Observability flags (docs/observability.md; both accept --flag VALUE and
// --flag=VALUE): --trace FILE captures stage spans for the whole run and
// writes Chrome trace_event JSON (load in Perfetto); --metrics FILE dumps
// the obs::Registry snapshot.  Both artifacts are re-parsed through
// io::Json before the tool exits -- a malformed file is a run failure.
// Either flag enables the otherwise-inert observability layer; results are
// bit-identical on or off.
//
// The sweep contracts (signatures invariant across threads, arenas, the
// geometry cache, pairing, obs and kernel tier; fault isolation, retry,
// halt-then-resume) are gated by tests/sweep_test.cc,
// tests/fault_tolerance_test.cc and tests/farfield_test.cc.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "obs_output.h"
#include "sweep/sweep.h"
#include "sweep/sweep_report.h"
#include "sweep/sweep_runner.h"
#include "tool_args.h"

using namespace decaylib;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--sweep NAME] [--instances K]\n"
               "          [--alpha A] [--beta B] [--lambda L]\n"
               "          [--scheduler lqf|greedy|random] [--threads T]\n"
               "          [--no-arena] [--no-geometry-cache]\n"
               "          [--geometry-generations G]\n"
               "          [--axis FIELD=V1,V2,...] [--checkpoint PATH]\n"
               "          [--resume] [--retries K] [--strict]\n"
               "          [--halt-after N] [--fail-cell I]\n"
               "          [--fail-attempts K] [--csv] [--json]\n"
               "          [--trace FILE] [--metrics FILE]\n",
               argv0);
  return 2;
}

// The base-spec fields with a flag of their own (--instances K, ...).
constexpr const char* kFieldFlags[] = {"instances", "alpha", "beta", "lambda",
                                       "scheduler"};

// Parses "FIELD=V1,V2,..." into an axis.  Field/value *semantics* are
// checked later by ValidateSweepSpec; this only splits the syntax.
bool ParseAxisFlag(const char* text, sweep::SweepAxis* out) {
  const std::string arg = text == nullptr ? "" : text;
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= arg.size()) {
    std::fprintf(stderr, "--axis: expected FIELD=V1,V2,..., got '%s'\n",
                 arg.c_str());
    return false;
  }
  out->field = arg.substr(0, eq);
  out->values.clear();
  std::size_t start = eq + 1;
  while (start <= arg.size()) {
    std::size_t comma = arg.find(',', start);
    if (comma == std::string::npos) comma = arg.size();
    const std::string token = arg.substr(start, comma - start);
    double value = 0.0;
    if (!core::ParseDouble(token.c_str(), -1e300, 1e300, &value)) {
      std::fprintf(stderr, "--axis: unparseable value '%s' in '%s'\n",
                   token.c_str(), arg.c_str());
      return false;
    }
    out->values.push_back(value);
    start = comma + 1;
  }
  return true;
}

int ListSweeps() {
  tools::PrintFields(stdout, "sweepable fields", engine::kAxis);
  std::printf("\nbuiltin sweeps:\n");
  for (const sweep::SweepSpec& spec : sweep::BuiltinSweeps()) {
    std::printf("  %-20s base=%s cells=%lld axes:", spec.name.c_str(),
                spec.base.topology.c_str(), sweep::GridSize(spec));
    for (const sweep::SweepAxis& axis : spec.axes) {
      std::printf(" %s[%zu]", axis.field.c_str(), axis.values.size());
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  bool csv = false;
  bool json = false;
  bool no_arena = false;
  bool no_geometry_cache = false;
  int geometry_generations = 0;  // 0 = keep SweepConfig's default (1)
  std::string sweep_name;
  int threads = 0;  // 0 = hardware concurrency (explicit values >= 1)
  std::vector<tools::FieldBinding> bindings;  // base-spec field flags
  std::vector<sweep::SweepAxis> extra_axes;
  std::string checkpoint_path;
  bool resume = false;
  bool strict = false;
  int retries = 0;      // 0 = keep SweepConfig's default
  int halt_after = 0;   // 0 = run the whole grid
  int fail_cell = -1;   // fault plan: < 0 = disarmed
  int fail_attempts = 1;
  std::string trace_path;
  std::string metrics_path;

  bool flag_ok = true;  // set false by MatchStringFlag on a missing value
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      list = true;
    } else if (std::strcmp(arg, "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--no-arena") == 0) {
      no_arena = true;
    } else if (std::strcmp(arg, "--no-geometry-cache") == 0) {
      no_geometry_cache = true;
    } else if (std::strcmp(arg, "--geometry-generations") == 0 &&
               i + 1 < argc) {
      if (!tools::ParseIntFlag("--geometry-generations", argv[++i], 1, 1 << 20,
                               &geometry_generations)) {
        return Usage(argv[0]);
      }
    } else if (tools::MatchStringFlag("--sweep", argc, argv, &i, &sweep_name,
                                      &flag_ok)) {
      if (!flag_ok) return Usage(argv[0]);
    } else if (tools::MatchStringFlag("--trace", argc, argv, &i, &trace_path,
                                      &flag_ok)) {
      if (!flag_ok) return Usage(argv[0]);
    } else if (tools::MatchStringFlag("--metrics", argc, argv, &i,
                                      &metrics_path, &flag_ok)) {
      if (!flag_ok) return Usage(argv[0]);
    } else if (tools::MatchFieldFlag(kFieldFlags, argc, argv, &i,
                                     &bindings)) {
      continue;  // bound into each selected sweep's base spec below
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      if (!tools::ParseIntFlag("--threads", argv[++i], 1, 1 << 16, &threads)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--axis") == 0 && i + 1 < argc) {
      sweep::SweepAxis axis;
      if (!ParseAxisFlag(argv[++i], &axis)) return Usage(argv[0]);
      extra_axes.push_back(std::move(axis));
    } else if (tools::MatchStringFlag("--checkpoint", argc, argv, &i,
                                      &checkpoint_path, &flag_ok)) {
      if (!flag_ok) return Usage(argv[0]);
    } else if (std::strcmp(arg, "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(arg, "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(arg, "--retries") == 0 && i + 1 < argc) {
      if (!tools::ParseIntFlag("--retries", argv[++i], 1, 100, &retries)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--halt-after") == 0 && i + 1 < argc) {
      if (!tools::ParseIntFlag("--halt-after", argv[++i], 1, 1 << 30,
                               &halt_after)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--fail-cell") == 0 && i + 1 < argc) {
      if (!tools::ParseIntFlag("--fail-cell", argv[++i], 0, 1 << 30,
                               &fail_cell)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--fail-attempts") == 0 && i + 1 < argc) {
      if (!tools::ParseIntFlag("--fail-attempts", argv[++i], -1, 100,
                               &fail_attempts)) {
        return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
  }
  if (resume && checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume needs --checkpoint PATH\n");
    return 2;
  }

  if (list) return ListSweeps();

  std::vector<sweep::SweepSpec> sweeps;
  if (!sweep_name.empty()) {
    auto found = sweep::FindBuiltinSweep(sweep_name);
    if (!found) {
      std::fprintf(stderr, "unknown sweep '%s'; try --list\n",
                   sweep_name.c_str());
      return 2;
    }
    sweeps.push_back(*std::move(found));
  } else {
    sweeps = sweep::BuiltinSweeps();
  }
  for (sweep::SweepSpec& spec : sweeps) {
    const auto sweeps = [&spec](const std::string& field) {
      return std::ranges::any_of(spec.axes, [&](const sweep::SweepAxis& axis) {
        return axis.field == field;
      });
    };
    for (const sweep::SweepAxis& extra : extra_axes) {
      if (sweeps(extra.field)) {
        std::fprintf(stderr,
                     "--axis %s: sweep '%s' already sweeps that field\n",
                     extra.field.c_str(), spec.name.c_str());
        return 2;
      }
      spec.axes.push_back(extra);
    }
    // A base override of a swept field would be silently erased by the axis
    // values in every cell; per this tool's flag policy that is a usage
    // error, not something to drop.
    for (const tools::FieldBinding& binding : bindings) {
      if (sweeps(binding.field)) {
        std::fprintf(stderr,
                     "--%s: sweep '%s' sweeps %s as an axis; the base "
                     "override would have no effect\n",
                     binding.field.c_str(), spec.name.c_str(),
                     binding.field.c_str());
        return 2;
      }
      if (!tools::BindField(spec.base, binding)) return 2;
    }
    // Unknown fields / out-of-range values become a clean exit here (the
    // runner would reject them too, but via an exception), listing the
    // sweepable fields so a typo'd --axis is self-diagnosing.
    if (const core::Status status = sweep::ValidateSweepSpec(spec);
        !status.ok()) {
      std::fprintf(stderr, "sweep '%s': %s\n", spec.name.c_str(),
                   status.message().c_str());
      tools::PrintFields(stderr, "sweepable fields", engine::kAxis);
      return 2;
    }
  }
  if (!checkpoint_path.empty() && sweeps.size() > 1) {
    std::fprintf(stderr,
                 "--checkpoint tracks one grid; select one with --sweep\n");
    return 2;
  }

  sweep::SweepConfig config;
  config.threads = threads;
  config.reuse_arena = !no_arena;
  config.reuse_geometry = !no_geometry_cache;
  if (geometry_generations > 0) {
    config.geometry_generations = geometry_generations;
  }
  if (retries > 0) config.max_attempts = retries;
  config.checkpoint_path = checkpoint_path;
  config.resume = resume;
  config.halt_after_cells = halt_after;
  config.fault.fail_cell = fail_cell;
  config.fault.fail_attempts = fail_attempts;
  const sweep::SweepRunner runner(config);
  tools::EnableObservability(trace_path, metrics_path);

  std::vector<sweep::SweepResult> results;
  try {
    results = runner.RunAll(sweeps);
  } catch (const core::StatusError& e) {
    // Whole-sweep failures (bad input, unusable checkpoint) are clean CLI
    // errors, not aborts.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  int failed_cells = 0;
  bool first = true;
  for (const sweep::SweepResult& result : results) {
    if (!first) std::printf("\n");
    first = false;
    sweep::PrintSweepReport(result);
    failed_cells += result.cells_failed;
    if (sweep::SweepViolationCount(result) != 0) {
      std::fprintf(stderr, "FAIL: violations in sweep %s\n",
                   result.spec.name.c_str());
      return 1;
    }
    if (csv &&
        !sweep::WriteSweepCsvFile(result, "SWEEP_" + result.spec.name +
                                              ".csv")) {
      return 1;
    }
  }
  if (json && !sweep::WriteSweepJsonReport("SWEEP", results)) return 1;
  if (!tools::WriteObservabilityFiles(trace_path, metrics_path)) return 1;
  if (failed_cells > 0) {
    std::fprintf(stderr, "%d cell%s failed (isolated; rest of the grid "
                         "completed)\n",
                 failed_cells, failed_cells == 1 ? "" : "s");
    if (strict) return 1;
  }
  return 0;
}
