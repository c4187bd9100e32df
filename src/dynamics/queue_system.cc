#include "dynamics/queue_system.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <utility>

#include "core/check.h"
#include "sinr/gain_rows.h"
#include "sinr/power.h"

namespace decaylib::dynamics {

namespace {

constexpr const char* kSchedulerNames[] = {"lqf", "greedy", "random"};

void ValidateConfig(int n, const QueueConfig& config) {
  DL_CHECK(static_cast<int>(config.arrival_rates.size()) == n,
           "one arrival rate per link required");
  DL_CHECK(config.slots > config.warmup && config.warmup >= 0,
           "slots must exceed warmup");
  for (const double rate : config.arrival_rates) {
    DL_CHECK(std::isfinite(rate) && rate >= 0.0 && rate <= 1.0,
             "arrival rates are per-slot Bernoulli probabilities in [0, 1]");
  }
}

// Shared simulation driver: arrivals, departures and statistics accounting
// are common code, so at a fixed seed the naive and cached paths draw the
// identical randomness stream and can only differ through `schedule` -- the
// per-slot service-set selection each path implements against its own
// feasibility machinery.
template <typename ScheduleSlot>
QueueStats RunQueueLoop(int n, const QueueConfig& config, geom::Rng& rng,
                        ScheduleSlot&& schedule) {
  ValidateConfig(n, config);
  std::vector<long long> queue(static_cast<std::size_t>(n), 0);
  QueueStats stats;
  double backlog_sum = 0.0;
  double backlog_q3 = 0.0;  // third quarter
  double backlog_q4 = 0.0;  // fourth quarter
  // Runs shorter than 4 slots have quarter == 0: every slot would fall into
  // the "fourth quarter" bucket and the growth ratio would read 1e9
  // ("unstable") off a trivially stable run.  Such runs skip the quarter
  // accounting and report the neutral 1.0 below.
  const int quarter = config.slots / 4;
  std::vector<int> chosen;

  for (int slot = 0; slot < config.slots; ++slot) {
    const bool measured = slot >= config.warmup;
    // Arrivals.
    for (int v = 0; v < n; ++v) {
      if (rng.Chance(config.arrival_rates[static_cast<std::size_t>(v)])) {
        ++queue[static_cast<std::size_t>(v)];
        ++stats.arrived_total;
        if (measured) ++stats.arrived_measured;
      }
    }
    // Schedule a service set among backlogged links.
    chosen.clear();
    schedule(queue, rng, chosen);
    for (int v : chosen) {
      --queue[static_cast<std::size_t>(v)];
      ++stats.served_total;
      if (measured) ++stats.served_measured;
    }
    const long long backlog =
        std::accumulate(queue.begin(), queue.end(), 0LL);
    if (measured) backlog_sum += static_cast<double>(backlog);
    if (quarter > 0) {
      if (slot >= 2 * quarter && slot < 3 * quarter) {
        backlog_q3 += static_cast<double>(backlog);
      } else if (slot >= 3 * quarter) {
        backlog_q4 += static_cast<double>(backlog);
      }
    }
  }

  const int measured_slots = config.slots - config.warmup;
  stats.mean_queue = backlog_sum / measured_slots;
  stats.throughput =
      static_cast<double>(stats.served_measured) / measured_slots;
  stats.mean_delay =
      stats.throughput > 0.0 ? stats.mean_queue / stats.throughput : 0.0;
  stats.offered_load = std::accumulate(config.arrival_rates.begin(),
                                       config.arrival_rates.end(), 0.0);
  stats.final_queues = std::move(queue);
  stats.backlog_growth = quarter == 0        ? 1.0
                         : backlog_q3 > 0.0  ? backlog_q4 / backlog_q3
                         : backlog_q4 > 0.0  ? 1e9
                                             : 1.0;
  return stats;
}

// Backlogged links in longest-queue-first order: queue length descending,
// ties by link id (the stable sort keeps the id order).
void CollectLongestQueueFirst(const std::vector<long long>& queue,
                              std::vector<int>& backlogged) {
  backlogged.clear();
  const int n = static_cast<int>(queue.size());
  for (int v = 0; v < n; ++v) {
    if (queue[static_cast<std::size_t>(v)] > 0) backlogged.push_back(v);
  }
  std::stable_sort(backlogged.begin(), backlogged.end(), [&](int a, int b) {
    return queue[static_cast<std::size_t>(a)] >
           queue[static_cast<std::size_t>(b)];
  });
}

// The realised random-access transmission set: every backlogged link
// transmits independently w.p. min(1, c / contention).  Consumes randomness
// identically on both paths (one Chance per backlogged link, id order).
void SampleRandomAccessSenders(const std::vector<long long>& queue,
                               double random_access_c, geom::Rng& rng,
                               std::vector<int>& senders) {
  senders.clear();
  const int n = static_cast<int>(queue.size());
  int contention = 0;
  for (int v = 0; v < n; ++v) {
    if (queue[static_cast<std::size_t>(v)] > 0) ++contention;
  }
  if (contention == 0) return;
  for (int v = 0; v < n; ++v) {
    if (queue[static_cast<std::size_t>(v)] == 0) continue;
    if (rng.Chance(std::min(1.0, random_access_c / contention))) {
      senders.push_back(v);
    }
  }
}

}  // namespace

std::span<const char* const> SchedulerNames() { return kSchedulerNames; }

const char* SchedulerName(Scheduler scheduler) {
  return kSchedulerNames[static_cast<int>(scheduler)];
}

std::optional<Scheduler> SchedulerFromName(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kSchedulerNames); ++i) {
    if (name == kSchedulerNames[i]) return static_cast<Scheduler>(i);
  }
  return std::nullopt;
}

QueueStats RunQueueSimulation(const sinr::KernelCache& kernel,
                              const QueueConfig& config, geom::Rng& rng) {
  const int n = kernel.NumLinks();
  const std::vector<int> decay_order = kernel.OrderByDecay();
  // Each scheduler builds only what it reads: the admission schedulers the
  // running affectance sums, random access the gain rows.
  std::optional<sinr::AffectanceAccumulator> admitted;
  std::optional<sinr::GainRows> gains;
  if (config.scheduler == Scheduler::kRandomAccess) {
    gains.emplace(kernel);
  } else {
    admitted.emplace(kernel);
  }
  std::vector<int> backlogged;
  std::vector<int> senders;
  std::vector<char> ok;

  // Greedy admission against the running affectance sums: O(|S|) per probe
  // and O(n) per admission, deciding exactly as the naive push-IsFeasible-
  // pop loop (kernel.h's CanAddFeasibly contract; the noise check is the
  // candidate's own clause of the naive feasibility scan).
  const auto admit = [&](int v) {
    if (kernel.CanOvercomeNoise(v) && admitted->CanAddFeasibly(v)) {
      admitted->Add(v);
    }
  };

  const auto schedule = [&](const std::vector<long long>& queue,
                            geom::Rng& slot_rng, std::vector<int>& chosen) {
    switch (config.scheduler) {
      case Scheduler::kLongestQueueFirst: {
        CollectLongestQueueFirst(queue, backlogged);
        admitted->Clear();
        for (int v : backlogged) admit(v);
        chosen.assign(admitted->members().begin(), admitted->members().end());
        break;
      }
      case Scheduler::kGreedyByDecay: {
        admitted->Clear();
        for (int v : decay_order) {
          if (queue[static_cast<std::size_t>(v)] == 0) continue;
          admit(v);
        }
        chosen.assign(admitted->members().begin(), admitted->members().end());
        break;
      }
      case Scheduler::kRandomAccess: {
        SampleRandomAccessSenders(queue, config.random_access_c, slot_rng,
                                  senders);
        // Only links meeting the SINR threshold in the realised transmission
        // set are served.
        gains->Successes(senders, ok);
        for (std::size_t i = 0; i < senders.size(); ++i) {
          if (ok[i]) chosen.push_back(senders[i]);
        }
        break;
      }
    }
  };
  return RunQueueLoop(n, config, rng, schedule);
}

QueueStats RunQueueSimulationNaive(const sinr::LinkSystem& system,
                                   const QueueConfig& config, geom::Rng& rng) {
  const int n = system.NumLinks();
  const sinr::PowerAssignment power = sinr::UniformPower(system);
  const std::vector<int> decay_order = system.OrderByDecay();
  std::vector<int> backlogged;
  std::vector<int> senders;

  const auto schedule = [&](const std::vector<long long>& queue,
                            geom::Rng& slot_rng, std::vector<int>& chosen) {
    switch (config.scheduler) {
      case Scheduler::kLongestQueueFirst: {
        CollectLongestQueueFirst(queue, backlogged);
        for (int v : backlogged) {
          chosen.push_back(v);
          if (!system.IsFeasible(chosen, power)) chosen.pop_back();
        }
        break;
      }
      case Scheduler::kGreedyByDecay: {
        for (int v : decay_order) {
          if (queue[static_cast<std::size_t>(v)] == 0) continue;
          chosen.push_back(v);
          if (!system.IsFeasible(chosen, power)) chosen.pop_back();
        }
        break;
      }
      case Scheduler::kRandomAccess: {
        SampleRandomAccessSenders(queue, config.random_access_c, slot_rng,
                                  senders);
        for (int v : senders) {
          if (system.Sinr(v, senders, power) >= system.config().beta) {
            chosen.push_back(v);
          }
        }
        break;
      }
    }
  };
  return RunQueueLoop(n, config, rng, schedule);
}

QueueConfig UniformArrivals(const sinr::LinkSystem& system, double lambda,
                            Scheduler scheduler, int slots) {
  DL_CHECK(std::isfinite(lambda) && lambda >= 0.0 && lambda <= 1.0,
           "lambda is a per-slot Bernoulli probability in [0, 1]");
  QueueConfig config;
  config.arrival_rates.assign(static_cast<std::size_t>(system.NumLinks()),
                              lambda);
  config.scheduler = scheduler;
  config.slots = slots;
  config.warmup = slots / 10;
  return config;
}

}  // namespace decaylib::dynamics
