// scenario_runner: run declarative deployment scenarios through the batched
// multi-instance engine.
//
//   $ scenario_runner --list
//   $ scenario_runner [--scenario NAME] [--links N] [--instances K]
//                     [--alpha A] [--beta B] [--lambda L] [--scheduler S]
//                     [--set FIELD=VALUE] [--threads T] [--seed S] [--json]
//                     [--trace FILE] [--metrics FILE]
//
// --set writes any sweepable field (sweep::SweepableFields(): links,
// instances, alpha, ..., lambda, regret_penalty, farfield_epsilon) into the
// selected specs, plus the non-numeric kernel_mode (dense | farfield,
// engine::ParseKernelMode) selecting the dense O(n^2) kernel or the
// certified far-field tier; unknown fields or out-of-range values are clean
// CLI errors listing the valid fields, and the final specs are validated
// (engine::ValidateScenarioSpec) before anything runs.
//
// Without --scenario, every builtin scenario runs.  --links / --instances /
// --alpha / --beta / --seed override the preset's values; --lambda (in
// [0, 1]) and --scheduler (lqf | greedy | random) override the dynamics
// knobs the queue task consumes; --threads sizes
// the worker pool (>= 1; when absent the pool uses hardware concurrency).
// Numeric flags are parsed strictly (tool_args.h): garbage, empty or
// out-of-range values -- including non-finite doubles -- are usage errors
// rather than silently becoming defaults, and --scheduler rejects unknown
// scheduler names.  --json
// writes BENCH_SCENARIO.json in the working directory (the bench_util.h
// record format plus a "scenarios" aggregate array; see docs/scenarios.md).
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
#include "dynamics/queue_system.h"
#include "engine/batch_runner.h"
#include "engine/report.h"
#include "engine/scenario.h"
#include "obs_output.h"
#include "sweep/sweep.h"
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

void ListSweepableFields(std::FILE* out) {
  std::fprintf(out, "settable fields:");
  for (const std::string& field : sweep::SweepableFields()) {
    std::fprintf(out, " %s", field.c_str());
  }
  std::fprintf(out, " kernel_mode(dense|farfield)\n");
}

// Splits "FIELD=VALUE" textually; value parsing and semantic checks happen
// when the binding is applied (kernel_mode takes a name, the sweepable
// fields take numbers).
bool ParseSetFlag(const char* text, std::pair<std::string, std::string>* out) {
  const std::string arg = text == nullptr ? "" : text;
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= arg.size()) {
    std::fprintf(stderr, "--set: expected FIELD=VALUE, got '%s'\n",
                 arg.c_str());
    return false;
  }
  *out = {arg.substr(0, eq), arg.substr(eq + 1)};
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
  int links = 0;       // 0 = keep the preset's value
  int instances = 0;   // 0 = keep the preset's value
  int threads = 0;     // 0 = hardware concurrency (explicit values >= 1)
  double alpha = 0.0;  // 0 = keep the preset's value (explicit values > 0)
  double beta = 0.0;   // 0 = keep the preset's value (explicit values > 0)
  double lambda = -1.0;    // < 0 = keep the preset's value
  int scheduler = -1;      // < 0 = keep; else index into SchedulerNames()
  std::uint64_t seed = 0;
  bool seed_set = false;
  std::vector<std::pair<std::string, std::string>> set_bindings;
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
    } else if (std::strcmp(arg, "--links") == 0 && i + 1 < argc) {
      if (!tools::ParseIntFlag("--links", argv[++i], 1, 1 << 20, &links)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--instances") == 0 && i + 1 < argc) {
      if (!tools::ParseIntFlag("--instances", argv[++i], 1, 1 << 20,
                               &instances)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      if (!tools::ParseIntFlag("--threads", argv[++i], 1, 1 << 16, &threads)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--alpha") == 0 && i + 1 < argc) {
      if (!tools::ParseDoubleFlag("--alpha", argv[++i], 1e-3, 64.0, &alpha)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--beta") == 0 && i + 1 < argc) {
      if (!tools::ParseDoubleFlag("--beta", argv[++i], 1e-6, 1e6, &beta)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--lambda") == 0 && i + 1 < argc) {
      if (!tools::ParseDoubleFlag("--lambda", argv[++i], 0.0, 1.0, &lambda)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--scheduler") == 0 && i + 1 < argc) {
      if (!tools::ParseChoiceFlag("--scheduler", argv[++i],
                                  dynamics::SchedulerNames(), &scheduler)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--set") == 0 && i + 1 < argc) {
      std::pair<std::string, std::string> binding;
      if (!ParseSetFlag(argv[++i], &binding)) return Usage(argv[0]);
      set_bindings.push_back(std::move(binding));
    } else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      if (!tools::ParseSeedFlag("--seed", argv[++i], &seed)) {
        return Usage(argv[0]);
      }
      seed_set = true;
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
    if (links > 0) spec.links = links;
    if (instances > 0) spec.instances = instances;
    if (alpha > 0.0) spec.alpha = alpha;
    if (beta > 0.0) spec.beta = beta;
    if (lambda >= 0.0) spec.dynamics.lambda = lambda;
    if (scheduler >= 0) {
      spec.dynamics.scheduler = static_cast<dynamics::Scheduler>(scheduler);
    }
    if (seed_set) spec.seed = seed;
    // --set bindings go through the sweep layer's field table, so the same
    // validation (and the same field names) back both tools.  kernel_mode is
    // the one non-numeric binding and routes through ParseKernelMode.
    for (const auto& [field, value] : set_bindings) {
      if (field == "kernel_mode") {
        const auto mode = engine::ParseKernelMode(value);
        if (!mode) {
          std::fprintf(stderr,
                       "--set kernel_mode=%s: unknown kernel mode (dense | "
                       "farfield)\n",
                       value.c_str());
          return 2;
        }
        spec.kernel_mode = *mode;
        continue;
      }
      double numeric = 0.0;
      if (!tools::ParseDouble(value.c_str(), -1e300, 1e300, &numeric)) {
        std::fprintf(stderr, "--set %s: unparseable value '%s'\n",
                     field.c_str(), value.c_str());
        ListSweepableFields(stderr);
        return 2;
      }
      const core::Status status = sweep::ApplyAxisValue(spec, field, numeric);
      if (!status.ok()) {
        std::fprintf(stderr, "--set %s=%g: %s\n", field.c_str(), numeric,
                     status.message().c_str());
        ListSweepableFields(stderr);
        return 2;
      }
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
