// E21 -- dynamics over cached kernels: queue/regret naive-vs-cached A/B.
//
// The queueing simulator (transfer list [2, 3, 44]) and the Asgeirsson-
// Mitra regret game ran per-slot LinkSystem queries -- every feasibility
// probe of the LQF/greedy admission re-summed O(|S|^2) affectance terms
// from the decay space, and every random-access/regret success check
// re-derived its interference column.  The cached paths build one
// sinr::KernelCache per instance and run greedy admission through an
// AffectanceAccumulator (O(n) per admission) and SINR checks on
// receiver-major gain rows built from the cached cross-decay matrix.
//
// For each workload (queue x {lqf, greedy, random}, regret) the bench runs
// the naive reference and the cached path from the same seed and exits 1
// unless every statistic -- counters, rates, final queues, transmit
// probabilities -- is bit-identical; only then does it quote wall-clock.
// The cached timings come in two flavours: "cached" INCLUDES the per-run
// kernel build (the honest standalone per-instance cost), while "warm" runs
// against a prebuilt kernel -- the batch engine's marginal cost, since one
// instance kernel is shared by every task of the batch.
//
// Flags: --links <n> (default 512), --slots <queue slots> (default 200),
//        --lambda <arrival rate> (default 0.2, overloads the default n so
//        the admission loops actually work), --rounds <regret rounds>
//        (default 300), --repeat <best-of> (default 3; becomes the
//        harness's default sample count), plus the obs::BenchHarness flags
//        --json (write BENCH_E21.json, schema v2), --reps/--warmup/
//        --min-time-ms (override --repeat's sampling).
//
// Run in a Release build; the Assert build's DL_CHECK instrumentation
// dominates the naive inner loops.
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "distributed/regret_game.h"
#include "dynamics/queue_system.h"
#include "obs/bench_harness.h"
#include "sinr/kernel.h"
#include "sinr/power.h"
#include "tool_args.h"

using namespace decaylib;

namespace {

constexpr std::uint64_t kSeed = 2121;

}  // namespace

int main(int argc, char** argv) {
  int links = 512;
  int slots = 200;
  int rounds = 300;
  int repeat = 3;
  double lambda = 0.2;
  bool parse_ok = true;
  for (int i = 1; i < argc && parse_ok; ++i) {
    if (std::strcmp(argv[i], "--links") == 0 && i + 1 < argc) {
      parse_ok = tools::ParseIntFlag("--links", argv[++i], 2, 1 << 16, &links);
    } else if (std::strcmp(argv[i], "--slots") == 0 && i + 1 < argc) {
      parse_ok = tools::ParseIntFlag("--slots", argv[++i], 4, 1 << 20, &slots);
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      parse_ok =
          tools::ParseIntFlag("--rounds", argv[++i], 4, 1 << 20, &rounds);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      parse_ok = tools::ParseIntFlag("--repeat", argv[++i], 1, 1000, &repeat);
    } else if (std::strcmp(argv[i], "--lambda") == 0 && i + 1 < argc) {
      parse_ok = tools::ParseDoubleFlag("--lambda", argv[++i], 0.0, 1.0,
                                        &lambda);
    } else {
      bool harness_flag_value = false;
      if (obs::BenchHarness::IsHarnessFlag(argv[i], &harness_flag_value)) {
        if (harness_flag_value) ++i;  // the harness validates the value
      } else {
        parse_ok = false;
      }
    }
  }
  // --repeat becomes the harness's default sample count, so "best of R"
  // turns into R timed samples per phase (min_ms is the quoted number;
  // --reps overrides).
  obs::BenchHarness report("E21", argc, argv,
                           obs::BenchHarness::Options{.reps = repeat});
  if (!parse_ok || !report.args_ok()) {
    std::fprintf(stderr,
                 "usage: %s [--links N] [--slots S] [--lambda L] [--rounds R] "
                 "[--repeat K] [--json] [--reps N] [--warmup N] "
                 "[--min-time-ms T]\n",
                 argv[0]);
    return 2;
  }

  bench::Banner("E21", "Dynamics over cached kernels: queue + regret A/B",
                "per-slot feasibility/SINR via one warm kernel per instance; "
                "bit-identical trajectories, >= 2x per-instance LQF speedup");

  // One planar deployment at constant density (the e14 recipe, scaled).
  geom::Rng deploy_rng(kSeed);
  const double box = 2.0 * std::sqrt(2.0 * static_cast<double>(links));
  bench::PlanarDeployment dep(links, box, 0.6, 1.2, deploy_rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
  const sinr::LinkSystem system(space, dep.links, {2.0, 0.0});

  std::printf("\nn = %d links, %d queue slots at lambda = %g, %d regret "
              "rounds, best of %d\n\n",
              links, slots, lambda, rounds, report.options().reps);

  bench::Table table(
      {"workload", "naive ms", "cached ms", "warm ms", "speedup"});

  // Best-of-R timing of one simulation path: R harness samples (every run
  // restarts the rng from the fixed seed, so repeats are bit-identical
  // re-executions) with min_ms as the quoted number.
  const auto best_of = [&](const std::string& phase, auto&& run) {
    return report.Time(phase, links, run).min_ms;
  };

  double lqf_naive_ms = 0.0;
  double lqf_cached_ms = 0.0;

  const struct {
    dynamics::Scheduler scheduler;
    const char* label;
  } queue_cases[] = {
      {dynamics::Scheduler::kLongestQueueFirst, "queue lqf"},
      {dynamics::Scheduler::kGreedyByDecay, "queue greedy"},
      {dynamics::Scheduler::kRandomAccess, "queue random"},
  };
  for (const auto& qc : queue_cases) {
    const dynamics::QueueConfig config =
        dynamics::UniformArrivals(system, lambda, qc.scheduler, slots);

    // Bit-exactness gate first; the timing below re-runs the same bits.
    dynamics::QueueStats naive_stats, cached_stats;
    {
      geom::Rng rng(kSeed + 7);
      naive_stats = dynamics::RunQueueSimulationNaive(system, config, rng);
    }
    {
      geom::Rng rng(kSeed + 7);
      const sinr::KernelCache kernel(system, sinr::UniformPower(system));
      cached_stats = dynamics::RunQueueSimulation(kernel, config, rng);
    }
    if (!(naive_stats == cached_stats)) {
      std::printf("ERROR: %s: cached statistics differ from the naive "
                  "reference\n",
                  qc.label);
      return 1;
    }

    const std::string phase_prefix =
        std::string("queue_") + dynamics::SchedulerName(qc.scheduler);
    const double naive_ms = best_of(phase_prefix + "_naive", [&] {
      geom::Rng rng(kSeed + 7);
      volatile double sink =
          dynamics::RunQueueSimulationNaive(system, config, rng).throughput;
      (void)sink;
    });
    // Standalone per-instance cost: the kernel build is inside the timer.
    const double cached_ms = best_of(phase_prefix + "_cached", [&] {
      geom::Rng rng(kSeed + 7);
      const sinr::KernelCache kernel(system, sinr::UniformPower(system));
      volatile double sink =
          dynamics::RunQueueSimulation(kernel, config, rng).throughput;
      (void)sink;
    });
    // Warm-kernel view: the kernel prebuilt outside the timer, as a batch
    // worker sees it (the instance kernel already exists for every task).
    const sinr::KernelCache warm_kernel(system, sinr::UniformPower(system));
    const double warm_ms = best_of(phase_prefix + "_warm", [&] {
      geom::Rng rng(kSeed + 7);
      volatile double sink =
          dynamics::RunQueueSimulation(warm_kernel, config, rng).throughput;
      (void)sink;
    });
    if (qc.scheduler == dynamics::Scheduler::kLongestQueueFirst) {
      lqf_naive_ms = naive_ms;
      lqf_cached_ms = cached_ms;
    }
    table.AddRow({qc.label, bench::Fmt(naive_ms, 1), bench::Fmt(cached_ms, 1),
                  bench::Fmt(warm_ms, 1),
                  bench::Fmt(naive_ms / cached_ms, 2) + "x"});
  }

  {
    distributed::RegretConfig config;
    config.rounds = rounds;
    config.measure_tail = std::max(1, rounds / 4);

    distributed::RegretResult naive_res, cached_res;
    {
      geom::Rng rng(kSeed + 13);
      naive_res = distributed::RunRegretGameNaive(system, config, rng);
    }
    {
      geom::Rng rng(kSeed + 13);
      const sinr::KernelCache kernel(system, sinr::UniformPower(system));
      cached_res = distributed::RunRegretGame(kernel, config, rng);
    }
    if (!(naive_res == cached_res)) {
      std::printf("ERROR: regret: cached results differ from the naive "
                  "reference\n");
      return 1;
    }

    const double naive_ms = best_of("regret_naive", [&] {
      geom::Rng rng(kSeed + 13);
      volatile double sink =
          distributed::RunRegretGameNaive(system, config, rng)
              .average_successes;
      (void)sink;
    });
    const double cached_ms = best_of("regret_cached", [&] {
      geom::Rng rng(kSeed + 13);
      const sinr::KernelCache kernel(system, sinr::UniformPower(system));
      volatile double sink =
          distributed::RunRegretGame(kernel, config, rng).average_successes;
      (void)sink;
    });
    const sinr::KernelCache warm_kernel(system, sinr::UniformPower(system));
    const double warm_ms = best_of("regret_warm", [&] {
      geom::Rng rng(kSeed + 13);
      volatile double sink =
          distributed::RunRegretGame(warm_kernel, config, rng)
              .average_successes;
      (void)sink;
    });
    table.AddRow({"regret game", bench::Fmt(naive_ms, 1),
                  bench::Fmt(cached_ms, 1), bench::Fmt(warm_ms, 1),
                  bench::Fmt(naive_ms / cached_ms, 2) + "x"});
  }

  table.Print();
  std::printf(
      "\nall trajectories bit-identical between the naive and cached paths "
      "(cached timings include the per-run kernel build)\n");
  std::printf("LQF per-instance speedup: %sx\n",
              bench::Fmt(lqf_naive_ms / lqf_cached_ms, 2).c_str());
  return report.Close();
}
