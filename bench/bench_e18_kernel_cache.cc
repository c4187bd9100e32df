// E18 -- cached SINR kernel layer: speedup over the naive query paths.
//
// Measures the precompute-once/reuse-everywhere kernel (sinr/kernel.h)
// against the naive LinkSystem/metricity reference paths on n ~ 512
// instances:
//   (a) RunAlgorithm1 (cached, incl. kernel build)  vs RunAlgorithm1Naive,
//       plus the warm-kernel variant that reuses a prebuilt cache the way
//       ScheduleLinks does across slots;
//   (b) full scheduling (ScheduleLinks = one kernel, many extractions);
//   (c) ComputeMetricity / ComputePhi (pruned + flattened, serial) vs the
//       exhaustive naive scans, plus ComputeMetricity alone on a shadowed
//       engine geometry (phase metricity_shadowed, the engine's measured-zeta
//       traffic);
//   (d) the power-control oracle: decay-order greedy prefixes through the
//       cached FeasibleWithPowerControl at noise 0 and noise > 0 (phase
//       power_control_greedy, the engine's power-control task budget).
// The cached/pruned results are asserted identical to the naive ones before
// any timing is reported.
//
// Flags: --n <links> (default 512), --metricity-n <nodes> (default 512),
//        plus the obs::BenchHarness flags --json (write BENCH_E18.json,
//        schema v2), --reps/--warmup/--min-time-ms (sampling control).
//
// Run in a Release build (-DCMAKE_BUILD_TYPE=Release): the Assert build's
// DL_CHECK instrumentation slows the naive path far beyond its honest cost.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "capacity/algorithm1.h"
#include "core/metricity.h"
#include "engine/scenario.h"
#include "obs/bench_harness.h"
#include "sinr/power_control.h"
#include "scheduling/scheduler.h"
#include "sinr/kernel.h"
#include "sinr/power.h"
#include "spaces/samplers.h"

using namespace decaylib;

namespace {

bool SameResult(const capacity::Algorithm1Result& a,
                const capacity::Algorithm1Result& b) {
  return a.admitted == b.admitted && a.selected == b.selected;
}

bool SameMetricity(const core::MetricityResult& a,
                   const core::MetricityResult& b) {
  return a.zeta == b.zeta && a.arg_x == b.arg_x && a.arg_y == b.arg_y &&
         a.arg_z == b.arg_z;
}

// The engine's power-control task budget (engine/batch_runner.cc).
constexpr int kPowerControlIterations = 300;
constexpr double kPowerControlTol = 1e-7;

struct PowerControlGreedyResult {
  std::vector<int> kept;
  long long iterations = 0;  // fixed-point iterations over all oracle calls
};

// Walks `order` and keeps a link when the grown prefix still admits some
// power assignment: one oracle call per link, on sets that grow to the
// greedy size.  Runs on a LinkSystem (naive) or a KernelCache (cached).
template <typename Oracle>
PowerControlGreedyResult PowerControlGreedy(const Oracle& oracle,
                                            const std::vector<int>& order) {
  PowerControlGreedyResult result;
  for (const int v : order) {
    result.kept.push_back(v);
    const sinr::PowerControlResult pc = sinr::FeasibleWithPowerControl(
        oracle, result.kept, kPowerControlIterations, kPowerControlTol);
    result.iterations += pc.iterations;
    if (!pc.feasible) result.kept.pop_back();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int n_links = 512;
  int n_metricity = 512;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--n") == 0) n_links = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--metricity-n") == 0) {
      n_metricity = std::atoi(argv[i + 1]);
    }
  }
  obs::BenchHarness report("E18", argc, argv);
  if (n_links < 2 || n_metricity < 3 || !report.args_ok()) {
    std::fprintf(stderr,
                 "usage: %s [--n <links >= 2>] [--metricity-n <nodes >= 3>] "
                 "[--json] [--reps N] [--warmup N] [--min-time-ms T]\n",
                 argv[0]);
    return 2;
  }

  bench::Banner("E18", "Cached SINR kernel layer",
                "precomputed affectance/distance kernels + incremental "
                "greedy + pruned metricity make the O(n^2)/O(n^3) scans "
                ">= 10x faster at n ~ 512");

  {
    std::printf("\n(a) Algorithm 1, %d links (alpha = 3, zeta = 3)\n\n", n_links);
    geom::Rng rng(21);
    // Box grows with sqrt(n): constant density, so the admitted set X grows
    // linearly and the admission loop is the dominant cost.
    const double box = 4.0 * std::sqrt(static_cast<double>(n_links));
    bench::PlanarDeployment dep(n_links, box, 0.5, 1.5, rng);
    const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
    const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
    const double zeta = 3.0;

    capacity::Algorithm1Result naive;
    const obs::SampleStats naive_stats = report.Time(
        "alg1_naive", n_links,
        [&] { naive = capacity::RunAlgorithm1Naive(system, zeta); });

    capacity::Algorithm1Result cached;
    const obs::SampleStats cold_stats =
        report.Time("alg1_cached_cold", n_links, [&] {
          const sinr::KernelCache cold(system, sinr::UniformPower(system));
          cached = capacity::RunAlgorithm1(cold, zeta);
        });

    const sinr::KernelCache kernel(system, sinr::UniformPower(system));
    capacity::Algorithm1Result warm;
    const obs::SampleStats warm_stats = report.Time(
        "alg1_cached_warm", n_links,
        [&] { warm = capacity::RunAlgorithm1(kernel, zeta); });

    if (!SameResult(naive, cached) || !SameResult(naive, warm)) {
      std::printf("ERROR: cached Algorithm 1 diverged from the naive path\n");
      return 1;
    }

    bench::Table table({"path", "wall ms", "speedup", "|X|", "|S|"});
    table.AddRow({"naive", bench::Fmt(naive_stats.min_ms, 2), "1.00",
                  bench::FmtInt(static_cast<long long>(naive.admitted.size())),
                  bench::FmtInt(static_cast<long long>(naive.selected.size()))});
    table.AddRow({"cached (cold)", bench::Fmt(cold_stats.min_ms, 2),
                  bench::Fmt(naive_stats.min_ms / cold_stats.min_ms, 2), "",
                  ""});
    table.AddRow({"cached (warm kernel)", bench::Fmt(warm_stats.min_ms, 2),
                  bench::Fmt(naive_stats.min_ms / warm_stats.min_ms, 2), "",
                  ""});
    table.Print();
  }

  {
    const int n_sched = n_links / 2;
    std::printf("\n(b) Full schedule, %d links (kernel reused across slots)\n\n",
                n_sched);
    geom::Rng rng(22);
    const double box = 2.0 * std::sqrt(static_cast<double>(n_sched));
    bench::PlanarDeployment dep(n_sched, box, 0.5, 1.5, rng);
    const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
    const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});

    scheduling::Schedule schedule;
    const obs::SampleStats sched_stats = report.Time(
        "schedule_alg1", n_sched, [&] {
          const sinr::KernelCache kernel(system, sinr::UniformPower(system));
          schedule =
              scheduling::ScheduleLinks(kernel, 3.0,
                                        scheduling::Extractor::kAlgorithm1,
                                        sinr::AllLinks(kernel));
        });
    std::printf("%zu slots in %s ms\n", schedule.slots.size(),
                bench::Fmt(sched_stats.min_ms, 2).c_str());
  }

  {
    std::printf("\n(c) Metricity / phi, %d nodes (alpha = 3)\n\n", n_metricity);
    geom::Rng rng(23);
    const core::DecaySpace space =
        spaces::RandomGeometric(n_metricity, 20.0, 20.0, 3.0, rng);

    core::MetricityResult naive;
    const obs::SampleStats naive_stats = report.Time(
        "metricity_naive", n_metricity,
        [&] { naive = core::ComputeMetricityNaive(space); });

    core::MetricityResult pruned;
    const obs::SampleStats pruned_stats = report.Time(
        "metricity_pruned", n_metricity,
        [&] { pruned = core::ComputeMetricity(space); });

    core::PhiResult naive_phi;
    const obs::SampleStats naive_phi_stats = report.Time(
        "phi_naive", n_metricity,
        [&] { naive_phi = core::ComputePhiNaive(space); });

    core::PhiResult fast_phi;
    const obs::SampleStats fast_phi_stats = report.Time(
        "phi_optimised", n_metricity,
        [&] { fast_phi = core::ComputePhi(space); });

    if (!SameMetricity(pruned, naive) ||
        fast_phi.phi_factor != naive_phi.phi_factor) {
      std::printf("ERROR: pruned metricity diverged from the naive path\n");
      return 1;
    }

    bench::Table table({"kernel", "naive ms", "optimised ms", "speedup"});
    table.AddRow({"ComputeMetricity", bench::Fmt(naive_stats.min_ms, 1),
                  bench::Fmt(pruned_stats.min_ms, 1),
                  bench::Fmt(naive_stats.min_ms / pruned_stats.min_ms, 1)});
    table.AddRow({"ComputePhi", bench::Fmt(naive_phi_stats.min_ms, 1),
                  bench::Fmt(fast_phi_stats.min_ms, 1),
                  bench::Fmt(naive_phi_stats.min_ms / fast_phi_stats.min_ms,
                             1)});
    table.Print();
    std::printf("zeta = %s (witness %d,%d,%d), phi = %s\n",
                bench::Fmt(pruned.zeta).c_str(), pruned.arg_x, pruned.arg_y,
                pruned.arg_z, bench::Fmt(fast_phi.phi).c_str());

    // The engine's measured-zeta traffic: shadowing lifts zeta far above
    // alpha, and the incumbent climbs in steps across the scan.
    engine::ScenarioSpec spec =
        *engine::FindBuiltinScenario("shadowed_asymmetric");
    spec.links = n_metricity / 2;
    const engine::ScenarioGeometry geometry = engine::BuildGeometry(spec, 0);
    const core::DecaySpace& shadowed = *geometry.space;
    const core::MetricityResult shadowed_naive =
        core::ComputeMetricityNaive(shadowed);
    if (!SameMetricity(core::ComputeMetricity(shadowed), shadowed_naive)) {
      std::printf("ERROR: pruned metricity diverged from the naive path on "
                  "the shadowed space\n");
      return 1;
    }
    const obs::SampleStats shadowed_stats = report.Time(
        "metricity_shadowed", shadowed.size(),
        [&] { (void)core::ComputeMetricity(shadowed); });
    std::printf("shadowed_asymmetric, %d nodes: zeta = %s in %s ms\n",
                shadowed.size(), bench::Fmt(shadowed_naive.zeta).c_str(),
                bench::Fmt(shadowed_stats.min_ms, 1).c_str());
  }

  {
    std::printf("\n(d) Power-control greedy, %d links (alpha = 3)\n\n",
                n_links);
    geom::Rng rng(24);
    // One link per unit area: the greedy set keeps about a third of the
    // links (k ~ 44 at n = 128), near the set sizes of the engine's
    // power-control task, and noise-0 calls often run to the budget.
    const double box = std::sqrt(static_cast<double>(n_links));
    bench::PlanarDeployment dep(n_links, box, 0.5, 1.5, rng);
    const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
    const sinr::LinkSystem quiet(space, dep.links, {1.0, 0.0});
    const sinr::LinkSystem noisy(space, dep.links, {1.0, 1e-3});
    const sinr::KernelCache quiet_kernel(quiet, sinr::UniformPower(quiet));
    const sinr::KernelCache noisy_kernel(noisy, sinr::UniformPower(noisy));
    const sinr::LinkSystem* systems[2] = {&quiet, &noisy};
    const sinr::KernelCache* kernels[2] = {&quiet_kernel, &noisy_kernel};
    const std::vector<int> order = quiet_kernel.OrderByDecay();

    PowerControlGreedyResult cached[2];
    const obs::SampleStats stats =
        report.Time("power_control_greedy", n_links, [&] {
          for (int t = 0; t < 2; ++t) {
            cached[t] = PowerControlGreedy(*kernels[t], order);
          }
        });

    bench::Table table({"noise", "greedy |S|", "oracle calls",
                        "mean iterations"});
    for (int t = 0; t < 2; ++t) {
      if (PowerControlGreedy(*systems[t], order).kept != cached[t].kept) {
        std::printf(
            "ERROR: cached power-control greedy diverged from the naive "
            "path\n");
        return 1;
      }
      table.AddRow(
          {bench::Fmt(systems[t]->config().noise),
           bench::FmtInt(static_cast<long long>(cached[t].kept.size())),
           bench::FmtInt(n_links),
           bench::Fmt(static_cast<double>(cached[t].iterations) / n_links,
                      1)});
    }
    table.Print();
    std::printf("both noise levels in %s ms\n",
                bench::Fmt(stats.min_ms, 2).c_str());
  }

  std::printf(
      "\nExpected shape: >= 10x for Algorithm 1 and ComputeMetricity at "
      "n ~ 512; the warm-kernel\nrow shows the amortised cost the scheduler "
      "actually pays per extraction.\n");
  return report.Close();
}
