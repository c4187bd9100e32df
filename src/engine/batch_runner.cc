#include "engine/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>
#include <thread>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "capacity/partitions.h"
#include "capacity/weighted.h"
#include "core/check.h"
#include "distributed/regret_game.h"
#include "dynamics/queue_system.h"
#include "geom/rng.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "scheduling/scheduler.h"
#include "sinr/farfield.h"
#include "sinr/kernel.h"
#include "sinr/power_control.h"

namespace decaylib::engine {

namespace {

// Registry handles of the engine layer, resolved once.  Counters/histograms
// only tick when obs::Enabled(); the stage breakdown in the results is
// populated always (from the same spans' Finish() values).
// Metric name catalogue: docs/observability.md.
struct EngineInstruments {
  obs::Counter& instances;
  obs::Counter& geometry_builds;
  obs::Counter& geometry_reuses;
  obs::Histogram& geometry_ms;
  obs::Histogram& kernel_build_ms;
  obs::Histogram& farfield_build_ms;
  obs::Histogram& instance_task_ms;
  obs::Gauge& threads;

  static EngineInstruments& Get() {
    static EngineInstruments* instruments = [] {
      obs::Registry& registry = obs::Registry::Global();
      return new EngineInstruments{
          registry.GetCounter("engine.instances"),
          registry.GetCounter("engine.geometry_builds"),
          registry.GetCounter("engine.geometry_reuses"),
          registry.GetHistogram("engine.geometry_ms"),
          registry.GetHistogram("engine.kernel_build_ms"),
          registry.GetHistogram("engine.farfield_build_ms"),
          registry.GetHistogram("engine.instance_task_ms"),
          registry.GetGauge("engine.threads"),
      };
    }();
    return *instruments;
  }
};

// Per-task rng streams: independent of the instance builder's stream and of
// each other (distinct salts), deterministic in (spec.seed, index) -- a
// worker's identity never reaches any task's randomness.
geom::Rng TaskRng(const ScenarioSpec& spec, std::uint64_t salt, int index) {
  return geom::Rng(geom::Mix64(spec.seed ^ salt) +
                   0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(index) + 1));
}

constexpr std::uint64_t kWeightStreamSalt = 0xa5b35705f00dfeedULL;
constexpr std::uint64_t kQueueStreamSalt = 0x517cc1b727220a95ULL;
constexpr std::uint64_t kRegretStreamSalt = 0x2545f4914f6cdd1dULL;

// Per-instance task weights for the weighted-capacity task.
std::vector<double> InstanceWeights(const ScenarioSpec& spec, int index,
                                    int n) {
  geom::Rng rng = TaskRng(spec, kWeightStreamSalt, index);
  std::vector<double> weights(static_cast<std::size_t>(n));
  for (double& w : weights) w = rng.Uniform(0.5, 2.0);
  return weights;
}

// Iteration/tolerance budget of the per-task power-control oracle: enough
// to settle well-separated sets in tens of iterations while bounding the
// near-threshold worst case (the verdict at the cap -- judge by the last
// growth rate -- is deterministic either way).
constexpr int kPowerControlIterations = 300;
constexpr double kPowerControlTol = 1e-7;

// Greedy admission in decay order with the cached power-control oracle: a
// link joins when the grown set has no pairwise obstruction (the O(|S|)
// certificate runs first) and the Foschini-Miljanic iteration contracts.
// The power-control analogue of GreedyFeasible; comparing the two sizes is
// the uniform-vs-power-control feasibility gap.
std::vector<int> GreedyPowerControlFeasible(const sinr::KernelCache& kernel) {
  const double beta = kernel.system().config().beta;
  std::vector<int> S;
  for (const int v : kernel.OrderByDecay()) {
    bool obstructed = false;
    for (const int w : S) {
      if (sinr::PairwiseAffectanceProduct(kernel, v, w) > beta * beta) {
        obstructed = true;
        break;
      }
    }
    if (obstructed) continue;
    S.push_back(v);
    if (!sinr::FeasibleWithPowerControl(kernel, S, kPowerControlIterations,
                                        kPowerControlTol)
             .feasible) {
      S.pop_back();
    }
  }
  return S;
}

// Builds the instance, warms its kernel once, and runs every configured
// task against it.  Deterministic in (spec, index, tasks); the arena and
// geometry cache, when provided, only change where matrices live and
// whether sampling re-runs -- never the bits of any result.
InstanceRecord RunInstance(const ScenarioSpec& spec, int index,
                           const BatchConfig& config,
                           sinr::KernelArena* arena) {
  const std::vector<TaskKind>& tasks = config.tasks;
  GeometryCache* geometry = config.geometry;
  const PairingMode pairing = config.pairing;
  if (index == config.fault_instance) {
    throw InjectedFault(config.fault_message);
  }
  InstanceRecord rec;
  rec.index = index;

  // Each stage's obs::Span times it once: Finish() feeds rec.stages always,
  // and the trace + registry histograms only when observability is on.
  obs::Span instance_span("instance");
  // The geometry is kept alive alongside the configured instance: the
  // far-field kernel is built from its planar points (matrix-free), which
  // ConfigureInstance does not carry over.
  std::optional<ScenarioGeometry> local_geom;
  const ScenarioGeometry* geom_ptr = nullptr;
  std::optional<ScenarioInstance> built;
  {
    obs::Span span("geometry", &EngineInstruments::Get().geometry_ms);
    if (geometry != nullptr) {
      bool sampled = true;
      geom_ptr = &geometry->Acquire(spec, index, pairing, &sampled);
      rec.geometry_reused = !sampled;
    } else {
      // Exactly BuildInstance's route, with the geometry retained.
      local_geom.emplace(BuildGeometry(spec, index, pairing));
      if (spec.zeta < 0.0) EnsureMeasuredZeta(*local_geom);
      geom_ptr = &*local_geom;
    }
    built.emplace(ConfigureInstance(spec, *geom_ptr));
    rec.stages.Record(rec.geometry_reused ? "geometry_reuse" : "geometry_build",
                      span.Finish());
  }
  const ScenarioInstance& instance = *built;

  // The dense kernel: built eagerly under kDense, lazily under kFarField
  // (only a task without a far-field path pays the O(n^2) slabs).  A lazy
  // build is charged to kernel_build alone: kernel_ms lets the triggering
  // task subtract it from its own stage.
  std::optional<sinr::KernelCache> local;
  const sinr::KernelCache* kernel_ptr = nullptr;
  double kernel_ms = 0.0;
  const auto ensure_kernel = [&]() -> const sinr::KernelCache& {
    if (kernel_ptr == nullptr) {
      obs::Span span("kernel_build", &EngineInstruments::Get().kernel_build_ms);
      if (arena != nullptr) {
        kernel_ptr = &arena->Rebuild(instance.system(), instance.power());
      } else {
        local.emplace(instance.system(), instance.power());
        kernel_ptr = &*local;
      }
      kernel_ms = span.Finish();
      rec.stages.Record("kernel_build", kernel_ms);
      rec.kernel_built = true;
    }
    return *kernel_ptr;
  };

  std::optional<sinr::FarFieldKernel> farfield;
  if (spec.kernel_mode == KernelMode::kFarField) {
    DL_CHECK(!geom_ptr->points.empty(),
             "kernel_mode=farfield needs a coordinate-backed topology");
    obs::Span span("farfield_build",
                   &EngineInstruments::Get().farfield_build_ms);
    sinr::FarFieldConfig fc;
    fc.epsilon = spec.farfield_epsilon;
    farfield.emplace(geom_ptr->points, instance.system().links(), spec.alpha,
                     instance.system().config(), instance.power(), fc);
    rec.stages.Record("farfield_build", span.Finish());
  } else {
    ensure_kernel();
  }
  rec.links = instance.NumLinks();
  rec.zeta = instance.zeta();

  const std::vector<int> all = sinr::AllLinks(instance.system());
  const double zeta = instance.zeta();

  // The admission pipelines are templates over the kernel tier: they run on
  // the far-field kernel when the spec built one, on the dense kernel
  // otherwise.  Every other task needs the dense kernel.
  const auto on_admission_tier = [&](const auto& task) {
    return farfield ? task(*farfield) : task(ensure_kernel());
  };

  // Algorithm 1's feasible set feeds the partition task too; run it at most
  // once per instance.
  std::optional<capacity::Algorithm1Result> alg1;
  const auto ensure_alg1 = [&] {
    if (!alg1) {
      alg1 = on_admission_tier([&](const auto& kernel) {
        return capacity::RunAlgorithm1(kernel, zeta);
      });
    }
  };

  for (const TaskKind task : tasks) {
    const std::string stage = std::string("task.") + TaskKindName(task);
    obs::Span task_span(stage, &EngineInstruments::Get().instance_task_ms,
                        "task");
    const double kernel_ms_before = kernel_ms;
    switch (task) {
      case TaskKind::kAlgorithm1: {
        ensure_alg1();
        rec.alg1_size = static_cast<int>(alg1->selected.size());
        rec.alg1_admitted = static_cast<int>(alg1->admitted.size());
        rec.alg1_feasible =
            alg1->selected.size() <= 1 ||
            on_admission_tier([&](const auto& kernel) {
              return kernel.IsFeasible(alg1->selected);
            });
        break;
      }
      case TaskKind::kGreedyBaseline: {
        rec.greedy_size = on_admission_tier([&](const auto& kernel) {
          return static_cast<int>(capacity::GreedyFeasible(kernel, all).size());
        });
        break;
      }
      case TaskKind::kWeighted: {
        const std::vector<double> weights =
            InstanceWeights(spec, index, rec.links);
        const capacity::WeightedResult res =
            capacity::WeightedAlgorithm1(ensure_kernel(), weights, zeta);
        rec.weighted_value = res.weight;
        rec.weighted_size = static_cast<int>(res.selected.size());
        break;
      }
      case TaskKind::kPartitions: {
        ensure_alg1();
        rec.partition_classes = static_cast<int>(
            capacity::Lemma41Partition(ensure_kernel(), alg1->selected, zeta)
                .size());
        break;
      }
      case TaskKind::kSchedule: {
        on_admission_tier([&](const auto& kernel) {
          const scheduling::Schedule schedule = scheduling::ScheduleLinks(
              kernel, zeta, scheduling::Extractor::kAlgorithm1, all);
          rec.schedule_slots = schedule.Length();
          rec.schedule_valid =
              scheduling::ValidateSchedule(kernel, schedule, all);
        });
        break;
      }
      case TaskKind::kPowerControl: {
        const sinr::KernelCache& kernel = ensure_kernel();
        rec.pc_greedy_size =
            static_cast<int>(GreedyPowerControlFeasible(kernel).size());
        rec.pc_all_feasible =
            sinr::FeasibleWithPowerControl(kernel, all, kPowerControlIterations,
                                           kPowerControlTol)
                    .feasible
                ? 1
                : 0;
        rec.pc_obstructed = sinr::HasPairwiseObstruction(kernel, all) ? 1 : 0;
        break;
      }
      case TaskKind::kQueue: {
        dynamics::QueueConfig qc;
        qc.arrival_rates.assign(static_cast<std::size_t>(rec.links),
                                spec.dynamics.lambda);
        qc.scheduler = spec.dynamics.scheduler;
        qc.slots = spec.dynamics.queue_slots;
        qc.warmup = spec.dynamics.queue_slots / 10;
        geom::Rng rng = TaskRng(spec, kQueueStreamSalt, index);
        const dynamics::QueueStats stats =
            dynamics::RunQueueSimulation(ensure_kernel(), qc, rng);
        rec.queue_throughput = stats.throughput;
        rec.queue_mean_queue = stats.mean_queue;
        rec.queue_backlog_growth = stats.backlog_growth;
        // Growth alone misfires on near-empty queues (the ratio of two tiny
        // backlog sums is noise): flag unstable only when the backlog is
        // also non-trivial -- more than one slot's worth of arrivals queued
        // on time-average.
        rec.queue_unstable =
            stats.backlog_growth > dynamics::kUnstableGrowthThreshold &&
                    stats.mean_queue > stats.offered_load
                ? 1
                : 0;
        break;
      }
      case TaskKind::kRegret: {
        distributed::RegretConfig rc;
        rc.learning_rate = spec.dynamics.regret_learning_rate;
        rc.failure_penalty = spec.dynamics.regret_penalty;
        rc.rounds = spec.dynamics.regret_rounds;
        rc.measure_tail = std::max(1, spec.dynamics.regret_rounds / 4);
        geom::Rng rng = TaskRng(spec, kRegretStreamSalt, index);
        const distributed::RegretResult res =
            distributed::RunRegretGame(ensure_kernel(), rc, rng);
        rec.regret_successes = res.average_successes;
        rec.regret_transmit_rate = res.transmit_rate;
        break;
      }
    }
    // A kernel built lazily inside this task is kernel_build's time only.
    const double lazy_kernel_ms = kernel_ms - kernel_ms_before;
    rec.stages.Record(stage, task_span.Finish() - lazy_kernel_ms);
  }
  return rec;
}

// Merges the per-instance stage breakdowns into the result's StageStats
// (always) and ticks the process-wide registry (when enabled).  Runs in the
// sequential post-pool reduction, so no synchronisation is needed.
void AggregateStages(ScenarioResult& result) {
  EngineInstruments& ins = EngineInstruments::Get();
  ins.instances.Add(static_cast<long long>(result.instances.size()));
  for (const InstanceRecord& rec : result.instances) {
    result.stage_stats.Merge(rec.stages);
    (rec.geometry_reused ? ins.geometry_reuses : ins.geometry_builds).Add();
  }
}

// Sequential, instance-ordered reduction of the deterministic metrics.
void Aggregate(ScenarioResult& result) {
  MetricSummary zeta, alg1_size, alg1_admitted, greedy_size, weighted_value,
      weighted_size, partition_classes, schedule_slots, alg1_infeasible,
      schedule_invalid, pc_greedy_size, pc_all_feasible, pc_obstructed,
      pc_gain, queue_throughput, queue_mean_queue, queue_backlog_growth,
      queue_unstable, regret_successes, regret_transmit_rate;
  for (const InstanceRecord& rec : result.instances) {
    zeta.Add(rec.zeta);
    if (rec.alg1_size >= 0) {
      alg1_size.Add(rec.alg1_size);
      alg1_admitted.Add(rec.alg1_admitted);
      alg1_infeasible.Add(rec.alg1_feasible ? 0.0 : 1.0);
    }
    if (rec.greedy_size >= 0) greedy_size.Add(rec.greedy_size);
    if (rec.weighted_size >= 0) {
      weighted_value.Add(rec.weighted_value);
      weighted_size.Add(rec.weighted_size);
    }
    if (rec.partition_classes >= 0) {
      partition_classes.Add(rec.partition_classes);
    }
    if (rec.schedule_slots >= 0) {
      schedule_slots.Add(rec.schedule_slots);
      schedule_invalid.Add(rec.schedule_valid ? 0.0 : 1.0);
    }
    if (rec.pc_greedy_size >= 0) {
      pc_greedy_size.Add(rec.pc_greedy_size);
      pc_all_feasible.Add(rec.pc_all_feasible);
      pc_obstructed.Add(rec.pc_obstructed);
      // The feasibility gap, per instance, when the uniform greedy also ran.
      if (rec.greedy_size >= 0) {
        pc_gain.Add(rec.pc_greedy_size - rec.greedy_size);
      }
    }
    if (rec.queue_throughput >= 0.0) {
      queue_throughput.Add(rec.queue_throughput);
      queue_mean_queue.Add(rec.queue_mean_queue);
      queue_backlog_growth.Add(rec.queue_backlog_growth);
      queue_unstable.Add(rec.queue_unstable);
    }
    if (rec.regret_successes >= 0.0) {
      regret_successes.Add(rec.regret_successes);
      regret_transmit_rate.Add(rec.regret_transmit_rate);
    }
  }
  result.aggregate = {
      {"zeta", zeta},
      {"alg1_size", alg1_size},
      {"alg1_admitted", alg1_admitted},
      {"alg1_infeasible", alg1_infeasible},
      {"greedy_size", greedy_size},
      {"weighted_value", weighted_value},
      {"weighted_size", weighted_size},
      {"partition_classes", partition_classes},
      {"schedule_slots", schedule_slots},
      {"schedule_invalid", schedule_invalid},
      {"pc_greedy_size", pc_greedy_size},
      {"pc_all_feasible", pc_all_feasible},
      {"pc_obstructed", pc_obstructed},
      {"pc_gain_vs_uniform", pc_gain},
      {"queue_throughput", queue_throughput},
      {"queue_mean_queue", queue_mean_queue},
      {"queue_backlog_growth", queue_backlog_growth},
      {"queue_unstable", queue_unstable},
      {"regret_successes", regret_successes},
      {"regret_transmit_rate", regret_transmit_rate},
  };
}

// The task table: every task's stable name, indexed by TaskKind.  Index
// order is also the canonical execution order AllTasks() returns.
constexpr const char* kTaskNames[] = {
    "algorithm1", "greedy",        "weighted", "partitions",
    "schedule",   "power_control", "queue",    "regret"};
static_assert(std::size(kTaskNames) == kNumTaskKinds);
static_assert(static_cast<int>(TaskKind::kRegret) + 1 == kNumTaskKinds);

}  // namespace

const char* TaskKindName(TaskKind kind) {
  const auto k = static_cast<std::size_t>(kind);
  return k < std::size(kTaskNames) ? kTaskNames[k] : "unknown";
}

std::vector<TaskKind> AllTasks() {
  std::vector<TaskKind> tasks;
  tasks.reserve(kNumTaskKinds);
  for (int k = 0; k < kNumTaskKinds; ++k) {
    tasks.push_back(static_cast<TaskKind>(k));
  }
  return tasks;
}

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(hc == 0 ? 1 : hc);
}

void MetricSummary::Add(double v) {
  sum += v;
  min = std::min(min, v);
  max = std::max(max, v);
  ++count;
}

BatchRunner::BatchRunner(BatchConfig config) : config_(std::move(config)) {}

ScenarioResult BatchRunner::RunOne(const ScenarioSpec& spec) const {
  // Runtime input is rejected as a recoverable error before any worker
  // starts; an invalid lambda, say, would otherwise flow straight into
  // Rng::Chance and silently distort the Bernoulli arrival process.
  core::ThrowIfError(ValidateScenarioSpec(spec));
  ScenarioResult result;
  result.spec = spec;
  result.instances.resize(static_cast<std::size_t>(spec.instances));

  int threads = ResolveThreads(config_.threads);
  DL_CHECK(config_.arenas.empty() ||
               static_cast<int>(config_.arenas.size()) >= threads,
           "arena span must cover every worker thread");
  threads = std::min(threads, spec.instances);

  // Adopt the cell's geometry key before workers start: slots invalidate
  // exactly when a geometry field changed, and the pool join below orders
  // this against every worker's Acquire.
  if (config_.geometry != nullptr) config_.geometry->Prepare(spec);

  EngineInstruments::Get().threads.Set(threads);
  obs::Span batch_span("batch." + spec.name, nullptr, "batch");
  // Work stealing over instance indices; records land in their own slot, so
  // nothing about the interleaving survives into the results.  A worker
  // that throws records the failure in its instance's slot and keeps
  // stealing -- every instance gets its attempt regardless of scheduling,
  // so the lowest failed index (the one rethrown below) is deterministic
  // under any thread count.
  std::vector<std::string> errors(static_cast<std::size_t>(spec.instances));
  std::vector<char> failed(static_cast<std::size_t>(spec.instances), 0);
  std::atomic<int> next{0};
  const auto worker = [&](int t) {
    sinr::KernelArena* arena =
        t < static_cast<int>(config_.arenas.size()) ? &config_.arenas[t]
                                                    : nullptr;
    for (int i = next.fetch_add(1); i < spec.instances;
         i = next.fetch_add(1)) {
      const std::size_t slot = static_cast<std::size_t>(i);
      try {
        result.instances[slot] = RunInstance(spec, i, config_, arena);
      } catch (const std::exception& e) {
        failed[slot] = 1;
        errors[slot] = e.what();
      } catch (...) {
        failed[slot] = 1;
        errors[slot] = "unknown exception";
      }
    }
  };
  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }
  result.batch_wall_ms = batch_span.Finish();

  for (int i = 0; i < spec.instances; ++i) {
    if (failed[static_cast<std::size_t>(i)]) {
      throw core::StatusError(core::Status::Internal(
          "instance " + std::to_string(i) + ": " +
          errors[static_cast<std::size_t>(i)]));
    }
  }

  AggregateStages(result);
  Aggregate(result);
  return result;
}

std::vector<ScenarioResult> BatchRunner::Run(
    std::span<const ScenarioSpec> specs) const {
  std::vector<ScenarioResult> results;
  results.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) results.push_back(RunOne(spec));
  return results;
}

core::Status AggregateHealth(const ScenarioResult& result) {
  for (const auto& [name, m] : result.aggregate) {
    if (m.count <= 0) continue;  // empty summaries keep their inf sentinels
    if (!std::isfinite(m.sum) || !std::isfinite(m.min) ||
        !std::isfinite(m.max)) {
      return core::Status::NumericError("non-finite aggregate " + name);
    }
  }
  return core::Status::Ok();
}

std::string AggregateSignature(std::span<const ScenarioResult> results) {
  std::string out;
  char buf[256];
  for (const ScenarioResult& r : results) {
    std::snprintf(buf, sizeof(buf), "%s topology=%s links=%d instances=%zu\n",
                  r.spec.name.c_str(), r.spec.topology.c_str(), r.spec.links,
                  r.instances.size());
    out += buf;
    for (const auto& [name, m] : r.aggregate) {
      std::snprintf(buf, sizeof(buf),
                    "  %s sum=%.17g min=%.17g max=%.17g count=%lld\n",
                    name.c_str(), m.sum, m.min, m.max, m.count);
      out += buf;
    }
  }
  return out;
}

}  // namespace decaylib::engine
