// E22 -- scaling the kernel layer past dense O(n^2): tiled builds and
// certified far-field affectance aggregation.
//
// A/B of the two kernel tiers on constant-density planar deployments
// (docs/performance.md, "scaling past dense"):
//   (a) n ~ 1k: dense KernelCache built through the scalar reference path
//       vs the fused tiled path (bit-identical entries, asserted over every
//       matrix), the far-field kernel build, and the greedy admission
//       workload dense vs far-field -- one GreedyFeasible template on both
//       tiers (identical admitted sets, asserted);
//   (b) n ~ 4k: the headline speedups -- dense tiled build vs far-field
//       build, dense greedy vs certified far-field greedy;
//   (c) n ~ 16k: far-field only; the dense matrices would need ~8.6 GB
//       while the far-field kernel stays O(n + cells);
//   (d) the engine: spec -> ScenarioResult through BatchRunner::RunOne
//       (uniform_dense, tasks algorithm1/greedy/schedule, 1 instance, 1
//       thread) -- dense and far-field at --n-large (identical aggregate
//       signatures, asserted) and far-field at --n-xl.  These phases time
//       every layer the engine runs (geometry, pairing, kernel, tasks), so
//       the bench_compare gate sees engine time, not kernel time alone.
//       Dense stops at --n-large because its kernel alone would need ~10 GB
//       at the default --n-xl.  The far-field run at the default --n-xl
//       takes tens of seconds, almost all of it certified admission.
// Certified-decision hit rates (accepts/rejects decided by the pooled
// interval vs exact fallbacks) are read from the sinr.farfield_* obs
// counters and also land in the BENCH record's per-phase counter deltas.
//
// Flags: --n <links> (default 1024), --n-large <links> (default 4096),
//        --n-xl <links> (default 16384), --epsilon <eps> (default 1e-3),
//        plus the obs::BenchHarness flags --json (write BENCH_E22.json,
//        schema v2), --reps/--warmup/--min-time-ms (sampling control).
//
// Run in a Release build; the committed bench/baselines/BENCH_E22.json was
// recorded with the CI invocation (reduced n, see .github/workflows/ci.yml).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "capacity/baselines.h"
#include "core/decay_space.h"
#include "engine/batch_runner.h"
#include "engine/scenario.h"
#include "obs/bench_harness.h"
#include "obs/registry.h"
#include "sinr/farfield.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

using namespace decaylib;

namespace {

constexpr double kAlpha = 3.0;
constexpr sinr::SinrConfig kConfig{1.0, 0.0};

long long CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).value();
}

// Snapshot of the far-field decision counters, for hit-rate deltas around a
// timed phase.
struct FarFieldCounters {
  long long checks = 0;
  long long accepts = 0;
  long long rejects = 0;
  long long fallbacks = 0;
  long long refined = 0;

  static FarFieldCounters Snapshot() {
    return {CounterValue("sinr.farfield_admission_checks"),
            CounterValue("sinr.farfield_certified_accepts"),
            CounterValue("sinr.farfield_certified_rejects"),
            CounterValue("sinr.farfield_exact_fallbacks"),
            CounterValue("sinr.farfield_refined_cells")};
  }
  FarFieldCounters Delta(const FarFieldCounters& before) const {
    return {checks - before.checks, accepts - before.accepts,
            rejects - before.rejects, fallbacks - before.fallbacks,
            refined - before.refined};
  }
};

// Every dense matrix entry bitwise-equal between two builds of the same
// system (the tiled/scalar contract).
bool BitIdenticalKernels(const sinr::KernelCache& a,
                         const sinr::KernelCache& b) {
  const int n = a.NumLinks();
  if (b.NumLinks() != n) return false;
  for (int w = 0; w < n; ++w) {
    for (int v = 0; v < n; ++v) {
      if (a.AffectanceRaw(w, v) != b.AffectanceRaw(w, v) ||
          a.CrossDecay(w, v) != b.CrossDecay(w, v) ||
          a.MinPairDecay(v, w) != b.MinPairDecay(v, w)) {
        return false;
      }
    }
  }
  return true;
}

void PrintHitRates(const char* tag, const FarFieldCounters& d) {
  const double denom = d.checks > 0 ? static_cast<double>(d.checks) : 1.0;
  std::printf(
      "%s: %lld certified checks (%.1f%% accept / %.1f%% reject via the "
      "pooled interval, %.1f%% exact fallbacks), %lld cells refined\n",
      tag, d.checks, 100.0 * static_cast<double>(d.accepts) / denom,
      100.0 * static_cast<double>(d.rejects) / denom,
      100.0 * static_cast<double>(d.fallbacks) / denom, d.refined);
}

}  // namespace

int main(int argc, char** argv) {
  int n_small = 1024;
  int n_large = 4096;
  int n_xl = 16384;
  double epsilon = 1e-3;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--n") == 0) n_small = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--n-large") == 0) {
      n_large = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--n-xl") == 0) n_xl = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--epsilon") == 0) {
      epsilon = std::atof(argv[i + 1]);
    }
  }
  obs::BenchHarness report("E22", argc, argv);
  if (n_small < 2 || n_large < 2 || n_xl < 2 ||
      !(epsilon >= 0.0 && std::isfinite(epsilon)) || !report.args_ok()) {
    std::fprintf(stderr,
                 "usage: %s [--n <links >= 2>] [--n-large <links >= 2>] "
                 "[--n-xl <links >= 2>] [--epsilon <eps >= 0>] [--json] "
                 "[--reps N] [--warmup N] [--min-time-ms T]\n",
                 argv[0]);
    return 2;
  }

  bench::Banner("E22", "Far-field kernel tier",
                "pooling distant cells' decay contributions with a "
                "certified relative error bound turns the O(n^2) kernel "
                "build and the admission loops into near-linear passes");

  const sinr::FarFieldConfig ff_config{epsilon};

  // ---- (a) small tier: every path, every exactness assertion ----
  {
    std::printf("\n(a) n = %d: tiled vs scalar vs far-field\n\n",
                n_small);
    geom::Rng rng(61);
    const double box = 4.0 * std::sqrt(static_cast<double>(n_small));
    bench::PlanarDeployment dep(n_small, box, 0.5, 1.5, rng);
    const core::DecaySpace space =
        core::DecaySpace::Geometric(dep.points, kAlpha);
    const sinr::LinkSystem system(space, dep.links, kConfig);

    sinr::KernelCache scalar(system, sinr::UniformPower(system),
                             sinr::KernelBuildPath::kScalar);
    const obs::SampleStats scalar_stats =
        report.Time("build_scalar_small", n_small, [&] {
          scalar = sinr::KernelCache(system, sinr::UniformPower(system),
                                     sinr::KernelBuildPath::kScalar);
        });

    sinr::KernelCache tiled(system, sinr::UniformPower(system));
    const obs::SampleStats tiled_stats =
        report.Time("build_tiled_small", n_small, [&] {
          tiled = sinr::KernelCache(system, sinr::UniformPower(system),
                                    sinr::KernelBuildPath::kTiled);
        });
    if (!BitIdenticalKernels(scalar, tiled)) {
      std::printf("ERROR: tiled kernel build diverged from the scalar "
                  "reference\n");
      return 1;
    }

    std::vector<int> all(static_cast<std::size_t>(n_small));
    std::iota(all.begin(), all.end(), 0);

    sinr::FarFieldKernel ff(dep.points, dep.links, kAlpha, kConfig,
                            sinr::UniformPower(system), ff_config);
    const obs::SampleStats ff_stats =
        report.Time("farfield_build_small", n_small, [&] {
          ff = sinr::FarFieldKernel(dep.points, dep.links, kAlpha, kConfig,
                                    sinr::UniformPower(system), ff_config);
        });

    std::vector<int> dense_greedy;
    const obs::SampleStats gd_stats =
        report.Time("greedy_dense_small", n_small,
                    [&] { dense_greedy = capacity::GreedyFeasible(tiled, all); });
    std::vector<int> ff_greedy;
    const FarFieldCounters before = FarFieldCounters::Snapshot();
    const obs::SampleStats gf_stats =
        report.Time("greedy_farfield_small", n_small,
                    [&] { ff_greedy = capacity::GreedyFeasible(ff, all); });
    const FarFieldCounters delta = FarFieldCounters::Snapshot().Delta(before);
    if (ff_greedy != dense_greedy) {
      std::printf("ERROR: certified far-field greedy diverged from the "
                  "dense admitted set\n");
      return 1;
    }

    bench::Table table({"path", "wall ms", "speedup vs scalar", "memory MB"});
    const double mb = 1.0 / (1024.0 * 1024.0);
    table.AddRow({"dense build (scalar)", bench::Fmt(scalar_stats.min_ms, 2),
                  "1.00",
                  bench::Fmt(static_cast<double>(tiled.MemoryBytes()) * mb, 1)});
    table.AddRow({"dense build (tiled)", bench::Fmt(tiled_stats.min_ms, 2),
                  bench::Fmt(scalar_stats.min_ms / tiled_stats.min_ms, 2),
                  bench::Fmt(static_cast<double>(tiled.MemoryBytes()) * mb, 1)});
    table.AddRow({"far-field build", bench::Fmt(ff_stats.min_ms, 2),
                  bench::Fmt(scalar_stats.min_ms / ff_stats.min_ms, 2),
                  bench::Fmt(static_cast<double>(ff.MemoryBytes()) * mb, 1)});
    table.Print();
    std::printf("greedy: dense %s ms, far-field %s ms (|S| = %zu, "
                "identical sets)\n",
                bench::Fmt(gd_stats.min_ms, 2).c_str(),
                bench::Fmt(gf_stats.min_ms, 2).c_str(), dense_greedy.size());
    PrintHitRates("hit rates", delta);
  }

  // ---- (b) large tier: the headline dense-vs-far-field speedups ----
  {
    std::printf("\n(b) n = %d: dense vs certified far-field (epsilon = %g)\n\n",
                n_large, epsilon);
    geom::Rng rng(62);
    const double box = 4.0 * std::sqrt(static_cast<double>(n_large));
    bench::PlanarDeployment dep(n_large, box, 0.5, 1.5, rng);
    const core::DecaySpace space =
        core::DecaySpace::Geometric(dep.points, kAlpha);
    const sinr::LinkSystem system(space, dep.links, kConfig);

    sinr::KernelCache dense(system, sinr::UniformPower(system));
    const obs::SampleStats dense_stats =
        report.Time("build_tiled_large", n_large, [&] {
          dense = sinr::KernelCache(system, sinr::UniformPower(system),
                                    sinr::KernelBuildPath::kTiled);
        });

    sinr::FarFieldKernel ff(dep.points, dep.links, kAlpha, kConfig,
                            sinr::UniformPower(system), ff_config);
    const obs::SampleStats ff_stats =
        report.Time("farfield_build_large", n_large, [&] {
          ff = sinr::FarFieldKernel(dep.points, dep.links, kAlpha, kConfig,
                                    sinr::UniformPower(system), ff_config);
        });

    std::vector<int> all(static_cast<std::size_t>(n_large));
    std::iota(all.begin(), all.end(), 0);
    std::vector<int> dense_greedy;
    const obs::SampleStats gd_stats =
        report.Time("greedy_dense_large", n_large,
                    [&] { dense_greedy = capacity::GreedyFeasible(dense, all); });
    std::vector<int> ff_greedy;
    const FarFieldCounters before = FarFieldCounters::Snapshot();
    const obs::SampleStats gf_stats =
        report.Time("greedy_farfield_large", n_large,
                    [&] { ff_greedy = capacity::GreedyFeasible(ff, all); });
    const FarFieldCounters delta = FarFieldCounters::Snapshot().Delta(before);
    if (ff_greedy != dense_greedy) {
      std::printf("ERROR: certified far-field greedy diverged from the "
                  "dense admitted set at n = %d\n", n_large);
      return 1;
    }

    const double mb = 1.0 / (1024.0 * 1024.0);
    bench::Table table({"stage", "dense ms", "far-field ms", "speedup"});
    table.AddRow({"kernel build", bench::Fmt(dense_stats.min_ms, 2),
                  bench::Fmt(ff_stats.min_ms, 2),
                  bench::Fmt(dense_stats.min_ms / ff_stats.min_ms, 1)});
    table.AddRow({"greedy admission", bench::Fmt(gd_stats.min_ms, 2),
                  bench::Fmt(gf_stats.min_ms, 2),
                  bench::Fmt(gd_stats.min_ms / gf_stats.min_ms, 1)});
    // The acceptance headline: an admission-heavy workload pays build +
    // admission on both sides (the dense matrix is useless until built).
    const double dense_e2e = dense_stats.min_ms + gd_stats.min_ms;
    const double ff_e2e = ff_stats.min_ms + gf_stats.min_ms;
    table.AddRow({"build + admission", bench::Fmt(dense_e2e, 2),
                  bench::Fmt(ff_e2e, 2), bench::Fmt(dense_e2e / ff_e2e, 1)});
    table.Print();
    std::printf("|S| = %zu (identical sets); memory: dense %s MB, "
                "far-field %s MB\n",
                dense_greedy.size(),
                bench::Fmt(static_cast<double>(dense.MemoryBytes()) * mb, 1).c_str(),
                bench::Fmt(static_cast<double>(ff.MemoryBytes()) * mb, 1).c_str());
    PrintHitRates("hit rates", delta);
  }

  // ---- (c) xl tier: past the dense wall ----
  {
    std::printf("\n(c) n = %d: far-field only (dense matrices would need "
                "%.1f GB)\n\n",
                n_xl,
                4.0 * 8.0 * static_cast<double>(n_xl) *
                    static_cast<double>(n_xl) / (1024.0 * 1024.0 * 1024.0));
    geom::Rng rng(63);
    const double box = 4.0 * std::sqrt(static_cast<double>(n_xl));
    bench::PlanarDeployment dep(n_xl, box, 0.5, 1.5, rng);
    const sinr::PowerAssignment uniform(static_cast<std::size_t>(n_xl), 1.0);

    sinr::FarFieldKernel ff(dep.points, dep.links, kAlpha, kConfig, uniform,
                            ff_config);
    const obs::SampleStats ff_stats =
        report.Time("farfield_build_xl", n_xl, [&] {
          ff = sinr::FarFieldKernel(dep.points, dep.links, kAlpha, kConfig,
                                    uniform, ff_config);
        });

    std::vector<int> ff_greedy;
    const FarFieldCounters before = FarFieldCounters::Snapshot();
    const obs::SampleStats gf_stats =
        report.Time("greedy_farfield_xl", n_xl,
                    [&] {
                      ff_greedy =
                          capacity::GreedyFeasible(ff, sinr::AllLinks(ff));
                    });
    const FarFieldCounters delta = FarFieldCounters::Snapshot().Delta(before);

    std::printf("far-field build %s ms, greedy %s ms, |S| = %zu, kernel "
                "memory %.1f MB\n",
                bench::Fmt(ff_stats.min_ms, 2).c_str(),
                bench::Fmt(gf_stats.min_ms, 2).c_str(), ff_greedy.size(),
                static_cast<double>(ff.MemoryBytes()) / (1024.0 * 1024.0));
    PrintHitRates("hit rates", delta);
  }

  // ---- (d) engine tier: the whole spec -> ScenarioResult pipeline ----
  {
    std::printf("\n(d) engine: uniform_dense through BatchRunner::RunOne, "
                "1 instance, 1 thread\n\n");
    engine::BatchConfig config;
    config.threads = 1;
    config.tasks = {engine::TaskKind::kAlgorithm1,
                    engine::TaskKind::kGreedyBaseline,
                    engine::TaskKind::kSchedule};
    const engine::BatchRunner runner(config);
    struct EngineCase {
      const char* phase;
      int links;
      engine::KernelMode mode;
    };
    const EngineCase cases[] = {
        {"engine_dense_large", n_large, engine::KernelMode::kDense},
        {"engine_farfield_large", n_large, engine::KernelMode::kFarField},
        {"engine_farfield_xl", n_xl, engine::KernelMode::kFarField},
    };
    bench::Table table({"phase", "links", "kernel", "wall ms", "|alg1|",
                        "|greedy|", "slots"});
    std::vector<std::string> signatures;
    for (const EngineCase& c : cases) {
      engine::ScenarioSpec spec = *engine::FindBuiltinScenario("uniform_dense");
      spec.links = c.links;
      spec.instances = 1;
      spec.kernel_mode = c.mode;
      spec.farfield_epsilon = epsilon;
      engine::ScenarioResult result;
      const obs::SampleStats stats = report.Time(
          c.phase, c.links, [&] { result = runner.RunOne(spec); });
      const engine::InstanceRecord& rec = result.instances.front();
      if (!rec.alg1_feasible || !rec.schedule_valid) {
        std::printf("ERROR: %s produced an infeasible Algorithm 1 set or an "
                    "invalid schedule\n", c.phase);
        return 1;
      }
      signatures.push_back(engine::AggregateSignature(
          std::span<const engine::ScenarioResult>(&result, 1)));
      table.AddRow({c.phase, std::to_string(c.links),
                    engine::KernelModeName(c.mode), bench::Fmt(stats.min_ms, 1),
                    std::to_string(rec.alg1_size),
                    std::to_string(rec.greedy_size),
                    std::to_string(rec.schedule_slots)});
    }
    table.Print();
    if (signatures[0] != signatures[1]) {
      std::printf("ERROR: engine far-field run diverged from the dense run "
                  "at n = %d\n", n_large);
      return 1;
    }
    std::printf("dense and far-field aggregate signatures identical at "
                "n = %d: yes\n", n_large);
  }

  std::printf(
      "\nExpected shape: the build + admission row clears 5x over dense at "
      "n ~ 4k (growing\nwith n), with certified decisions deciding almost "
      "every check and exact fallbacks\nrare; tier (c) runs where the dense "
      "kernel cannot allocate; in tier (d) the\nengine's far-field run "
      "needs no O(n^2) memory at any layer.\n");
  return report.Close();
}
