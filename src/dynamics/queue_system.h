// Dynamic packet scheduling over decay spaces (the transfer list's
// [2, 3, 44]: wireless network stability in the SINR model).
//
// Packets arrive at links as independent Bernoulli processes; each slot a
// scheduler selects a feasible set of backlogged links, each of which serves
// one packet.  The questions the cited works study -- which arrival-rate
// vectors are stably supported, and by which (distributed) schedulers --
// depend on the decay space only through its metricity-type parameters, so
// by Prop. 1 the GEO-SINR stability results carry over with alpha -> zeta.
// The simulator here lets benches and engine sweeps measure the realised
// stability region.
//
// Schedulers:
//  * kLongestQueueFirst   -- max-weight flavoured greedy: scan backlogged
//                            links by queue length (desc), admit while the
//                            slot stays feasible;
//  * kGreedyByDecay       -- backlog-oblivious greedy in decay order;
//  * kRandomAccess        -- [44]-style distributed random access: each
//                            backlogged link transmits w.p. min(1, c/contention)
//                            independently; collisions serve nothing.
//
// The simulation runs on a prebuilt sinr::KernelCache (one O(n^2) kernel
// build per instance, by the caller): greedy admission goes through an
// AffectanceAccumulator (O(n) per admission instead of the naive O(|S|^2)
// re-summation; needs KernelSlabs::kAffectance) and the random-access
// success checks read receiver-major gain rows built from the cached cross
// decays (sinr/gain_rows.h; needs KernelSlabs::kCrossDecay).  The original
// per-slot implementation survives as RunQueueSimulationNaive, and on a
// uniform-power kernel the cached path is bit-exact against it at a fixed
// seed (admission decides exactly as the naive push-IsFeasible-pop loop,
// the gain-row verdicts equal LinkSystem::Sinr >= beta, and both paths draw
// the same randomness stream).
//
// Statistics semantics: `*_total` counters cover the WHOLE run including
// warmup slots; `*_measured` counters and every derived rate (throughput,
// mean_queue, mean_delay) cover only the post-warmup measurement window, so
// throughput == served_measured / (slots - warmup) exactly (served_total /
// slots would mix the cold-start transient into the rate).
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "geom/rng.h"
#include "sinr/kernel.h"
#include "sinr/link_system.h"

namespace decaylib::dynamics {

enum class Scheduler {
  kLongestQueueFirst,
  kGreedyByDecay,
  kRandomAccess,
};

// Canonical scheduler names, indexed by the enum value: "lqf", "greedy",
// "random".  Shared by the CLI flags, docs and reports.
std::span<const char* const> SchedulerNames();
const char* SchedulerName(Scheduler scheduler);
std::optional<Scheduler> SchedulerFromName(std::string_view name);

struct QueueConfig {
  std::vector<double> arrival_rates;  // per link, packets per slot, in [0, 1]
  Scheduler scheduler = Scheduler::kLongestQueueFirst;
  int slots = 5000;
  int warmup = 500;              // slots excluded from averages
  double random_access_c = 0.5;  // c for kRandomAccess
};

// Growth ratios above this are flagged unstable by the engine's queue task.
// Backlog growing linearly from an empty start has Q4/Q3 -> 1.4 (the
// quarter sums are integrals of t), so the threshold must sit below that;
// 1.2 splits it from the ~1 of a stable run.  The ratio of two near-zero
// backlog sums is noise, so the engine couples the threshold with a
// mean-queue guard (see TaskKind::kQueue in batch_runner.cc).
inline constexpr double kUnstableGrowthThreshold = 1.2;

struct QueueStats {
  double mean_queue = 0.0;        // time-average total backlog (post warmup)
  double mean_delay = 0.0;        // Little's-law estimate: backlog / throughput
  double throughput = 0.0;        // served packets per slot (post warmup)
  double offered_load = 0.0;      // sum of arrival rates
  // Whole-run counters, warmup included (the conservation law
  // arrived_total == served_total + remaining backlog holds for these).
  long long served_total = 0;
  long long arrived_total = 0;
  // Post-warmup counters: exactly the events behind the rates above, so
  // throughput == served_measured / (slots - warmup) bit-for-bit.
  long long served_measured = 0;
  long long arrived_measured = 0;
  std::vector<long long> final_queues;
  // Crude stability indicator: backlog in the last quarter vs the quarter
  // before it (ratio ~1 when stable, > 1 and growing when unstable).  Runs
  // shorter than 4 slots have no two quarters to compare and report the
  // neutral 1.0 instead of a spurious verdict.
  double backlog_growth = 0.0;

  // Bitwise equality over every field: the naive-vs-cached exactness gates
  // (tests, bench_e21) compare whole results, so a new field is covered
  // automatically.
  friend bool operator==(const QueueStats&, const QueueStats&) = default;
};

// Runs the queueing simulation against a warm kernel (and its power
// assignment).  One kernel build serves any number of simulations; over a
// uniform-power kernel it is bit-identical to the naive reference below.
QueueStats RunQueueSimulation(const sinr::KernelCache& kernel,
                              const QueueConfig& config, geom::Rng& rng);

// Naive reference (per-slot LinkSystem feasibility/SINR queries under
// uniform power): kept as the test oracle and bench A/B baseline for the
// cached path, exactly the pre-kernel behaviour.
QueueStats RunQueueSimulationNaive(const sinr::LinkSystem& system,
                                   const QueueConfig& config, geom::Rng& rng);

// Convenience: uniform arrival rate lambda on every link (lambda in [0, 1]).
QueueConfig UniformArrivals(const sinr::LinkSystem& system, double lambda,
                            Scheduler scheduler, int slots = 5000);

}  // namespace decaylib::dynamics
