// scenario_runner: run declarative deployment scenarios through the batched
// multi-instance engine.
//
//   $ scenario_runner --list
//   $ scenario_runner [--scenario NAME] [--links N] [--instances K]
//                     [--alpha A] [--beta B] [--lambda L] [--scheduler S]
//                     [--set FIELD=VALUE] [--threads T] [--seed S] [--json]
//                     [--trace FILE] [--metrics FILE]
//
// Without --scenario, every builtin scenario runs.  --links / --instances /
// --alpha / --beta / --lambda / --scheduler / --seed override the preset's
// fields, and --set FIELD=VALUE writes any field the engine's field table
// marks settable (every sweep axis, plus kernel_mode: dense | farfield,
// selecting the dense O(n^2) kernel or the certified far-field tier).  Both
// bind through the table (engine::ScenarioFields()): the value is parsed
// by the field's type (numbers strictly, enums by name) and checked against
// its range with the library's message, so garbage, non-finite or
// out-of-range values and unknown fields are clean CLI errors; the final
// specs are validated (engine::ValidateScenarioSpec) before anything runs.
// --threads sizes the worker pool (>= 1; when absent the pool uses hardware
// concurrency).  --json writes BENCH_SCENARIO.json in the working
// directory (a BENCH schema v2 record via obs::BenchHarness, plus a
// "scenarios" aggregate array; see docs/scenarios.md).
//
// --trace FILE captures stage spans (geometry / kernel / per-task, per
// worker thread) and writes Chrome trace_event JSON viewable in Perfetto;
// --metrics FILE dumps the obs::Registry snapshot.  Both accept --flag VALUE
// and --flag=VALUE, both are re-parsed through io::Json before exit, and
// either enables the otherwise-inert observability layer (results are
// bit-identical on or off; docs/observability.md).
//
// The engine's determinism contracts (aggregates invariant across thread
// counts, every builtin running clean) are gated by tests/engine_test.cc.
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "engine/batch_runner.h"
#include "engine/report.h"
#include "engine/scenario.h"
#include "obs_output.h"
#include "tool_args.h"

using namespace decaylib;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--scenario NAME] [--links N]\n"
               "          [--instances K] [--alpha A] [--beta B] [--lambda L]\n"
               "          [--scheduler lqf|greedy|random] [--set FIELD=VALUE]\n"
               "          [--threads T] [--seed S] [--json]\n"
               "          [--trace FILE] [--metrics FILE]\n",
               argv0);
  return 2;
}

// The spec fields with a flag of their own (--links N, ...).
constexpr const char* kFieldFlags[] = {"links", "instances", "alpha", "beta",
                                       "lambda", "scheduler", "seed"};

// Splits "FIELD=VALUE"; the field table parses the value when it binds.
bool ParseSetFlag(const char* text, tools::FieldBinding* out) {
  const std::string arg = text == nullptr ? "" : text;
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= arg.size()) {
    std::fprintf(stderr, "--set: expected FIELD=VALUE, got '%s'\n",
                 arg.c_str());
    return false;
  }
  *out = {engine::kSet, arg.substr(0, eq), arg.substr(eq + 1)};
  return true;
}

int ListScenarios() {
  std::printf("registered topologies:");
  for (const std::string& name : engine::RegisteredTopologies()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n\nbuiltin scenarios:\n");
  for (const engine::ScenarioSpec& spec : engine::BuiltinScenarios()) {
    std::printf(
        "  %-22s topology=%-9s links=%d instances=%d alpha=%.2g "
        "sigma_db=%.2g tau=%.2g zeta=%s\n",
        spec.name.c_str(), spec.topology.c_str(), spec.links, spec.instances,
        spec.alpha, spec.sigma_db, spec.power_tau,
        spec.zeta > 0.0  ? std::to_string(spec.zeta).c_str()
        : spec.zeta == 0 ? "alpha"
                         : "measured");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  bool json = false;
  std::string scenario;
  int threads = 0;  // 0 = hardware concurrency (explicit values >= 1)
  std::vector<tools::FieldBinding> bindings;  // in command-line order
  std::string trace_path;
  std::string metrics_path;

  bool flag_ok = true;  // set false by MatchStringFlag on a missing value
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      list = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (tools::MatchStringFlag("--scenario", argc, argv, &i, &scenario,
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
      continue;  // bound into each selected spec below
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      if (!tools::ParseIntFlag("--threads", argv[++i], 1, 1 << 16, &threads)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--set") == 0 && i + 1 < argc) {
      tools::FieldBinding binding;
      if (!ParseSetFlag(argv[++i], &binding)) return Usage(argv[0]);
      bindings.push_back(std::move(binding));
    } else {
      return Usage(argv[0]);
    }
  }

  if (list) return ListScenarios();

  std::vector<engine::ScenarioSpec> specs;
  if (!scenario.empty()) {
    auto found = engine::FindBuiltinScenario(scenario);
    if (!found) {
      std::fprintf(stderr, "unknown scenario '%s'; try --list\n",
                   scenario.c_str());
      return 2;
    }
    specs.push_back(*std::move(found));
  } else {
    specs = engine::BuiltinScenarios();
  }
  for (engine::ScenarioSpec& spec : specs) {
    for (const tools::FieldBinding& binding : bindings) {
      if (tools::BindField(spec, binding)) continue;
      if (binding.role == engine::kSet) {
        tools::PrintFields(stderr, "settable fields", engine::kSet);
      }
      return 2;
    }
    // Final gate: the composed spec must be valid before anything runs; an
    // out-of-range combination exits cleanly instead of aborting a worker.
    if (const core::Status status = engine::ValidateScenarioSpec(spec);
        !status.ok()) {
      std::fprintf(stderr, "scenario '%s': %s\n", spec.name.c_str(),
                   status.message().c_str());
      return 2;
    }
  }

  engine::BatchConfig config;
  config.threads = threads;
  const engine::BatchRunner runner(config);
  tools::EnableObservability(trace_path, metrics_path);
  std::vector<engine::ScenarioResult> results;
  try {
    results = runner.Run(specs);
  } catch (const core::StatusError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  engine::PrintReport(results);

  if (json && !engine::WriteJsonReport("SCENARIO", results)) return 1;
  if (!tools::WriteObservabilityFiles(trace_path, metrics_path)) return 1;
  return 0;
}
