#include "engine/batch_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>

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

// The task table, indexed by TaskKind: every task's stable name (index
// order is also the canonical execution order AllTasks() returns) and the
// dense-kernel slabs it reads.  `admission_tier` marks the tasks that run
// on the far-field kernel when the spec builds one; those read no dense
// slab then.  The power-control oracle and the regret game read cross
// decays; the queue's admission schedulers read affectances (random access
// reads the cross decays instead, see TaskSlabs); the capacity and
// scheduling tasks read affectances, their separation tests no slab (they
// are decided from the decay space).  Each task's aggregate metrics are its
// rows of the metric table (AggregateMetrics).
struct TaskEntry {
  const char* name;
  sinr::KernelSlabs slabs;
  bool admission_tier;
};
constexpr TaskEntry kTasks[] = {
    {"algorithm1", sinr::KernelSlabs::kAffectance, true},
    {"greedy", sinr::KernelSlabs::kAffectance, true},
    {"weighted", sinr::KernelSlabs::kAffectance, false},
    {"partitions", sinr::KernelSlabs::kAffectance, false},
    {"schedule", sinr::KernelSlabs::kAffectance, true},
    {"power_control", sinr::KernelSlabs::kCrossDecay, false},
    {"queue", sinr::KernelSlabs::kAffectance, false},
    {"regret", sinr::KernelSlabs::kCrossDecay, false},
};
static_assert(std::size(kTasks) == kNumTaskKinds);
static_assert(static_cast<int>(TaskKind::kRegret) + 1 == kNumTaskKinds);

// The dense slabs `task` reads under `spec`: none for an admission task on a
// far-field kernel, and for the queue those of its scheduler.
sinr::KernelSlabs TaskSlabs(TaskKind task, const ScenarioSpec& spec) {
  const TaskEntry& entry = kTasks[static_cast<std::size_t>(task)];
  if (spec.kernel_mode == KernelMode::kFarField && entry.admission_tier) {
    return sinr::KernelSlabs::kNone;
  }
  if (task == TaskKind::kQueue &&
      spec.dynamics.scheduler == dynamics::Scheduler::kRandomAccess) {
    return sinr::KernelSlabs::kCrossDecay;
  }
  return entry.slabs;
}

// The dense slabs `tasks` read under `spec`: the union over the task list.
sinr::KernelSlabs DenseSlabs(const std::vector<TaskKind>& tasks,
                             const ScenarioSpec& spec) {
  sinr::KernelSlabs slabs = sinr::KernelSlabs::kNone;
  for (const TaskKind task : tasks) slabs = slabs | TaskSlabs(task, spec);
  return slabs;
}

// Builds the instance, warms its kernel once, and runs every configured
// task against it.  Deterministic in (spec, index, tasks); the arena and
// geometry lease, when provided, only change where matrices live and
// whether sampling re-runs -- never the bits of any result.
InstanceRecord RunInstance(const ScenarioSpec& spec, int index,
                           const std::vector<TaskKind>& tasks,
                           PairingMode pairing,
                           const GeometryCache::Lease& geometry,
                           sinr::KernelArena* arena) {
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
    if (geometry) {
      bool sampled = true;
      geom_ptr = &geometry.Acquire(spec, index, pairing, &sampled);
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
  // (only a task without a far-field path pays the O(n^2) slabs), and with
  // only the slabs the task list reads.  A lazy build is charged to
  // kernel_build alone: kernel_ms lets the triggering task subtract it from
  // its own stage.
  const sinr::KernelSlabs slabs = DenseSlabs(tasks, spec);
  std::optional<sinr::KernelCache> local;
  const sinr::KernelCache* kernel_ptr = nullptr;
  double kernel_ms = 0.0;
  const auto ensure_kernel = [&]() -> const sinr::KernelCache& {
    if (kernel_ptr == nullptr) {
      obs::Span span("kernel_build", &EngineInstruments::Get().kernel_build_ms);
      if (arena != nullptr) {
        kernel_ptr =
            &arena->Rebuild(instance.system(), instance.power(), slabs);
      } else {
        local.emplace(instance.system(), instance.power(), slabs);
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
            static_cast<int>(sinr::GreedyPowerControlFeasible(kernel).size());
        rec.pc_all_feasible =
            sinr::FeasibleWithPowerControl(kernel, all,
                                           sinr::kGreedyPowerControlIterations,
                                           sinr::kGreedyPowerControlTol)
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

// Metric-table readers: one InstanceRecord field, a pass/fail field as a
// violation (1 when it failed), and the power-control gain over uniform
// power, which needs the greedy baseline's size too.
template <auto Field>
std::optional<double> Read(const InstanceRecord& rec) {
  return static_cast<double>(rec.*Field);
}
template <auto Passed>
std::optional<double> Failed(const InstanceRecord& rec) {
  return rec.*Passed ? 0.0 : 1.0;
}
std::optional<double> PcGainVsUniform(const InstanceRecord& rec) {
  if (rec.greedy_size < 0) return std::nullopt;
  return static_cast<double>(rec.pc_greedy_size - rec.greedy_size);
}

// The sequential, instance-ordered reduction after the pool drains: merges
// the per-instance stage breakdowns into the result's StageStats (always),
// ticks the process-wide registry (when enabled), and sums the
// deterministic metrics -- zeta, then every table row whose task is in the
// batch's task list (every instance ran that list); the other rows keep
// empty summaries.
void Aggregate(ScenarioResult& result, const std::vector<TaskKind>& tasks) {
  EngineInstruments& ins = EngineInstruments::Get();
  ins.instances.Add(static_cast<long long>(result.instances.size()));
  MetricSummary zeta;
  for (const InstanceRecord& rec : result.instances) {
    result.stage_stats.Merge(rec.stages);
    (rec.geometry_reused ? ins.geometry_reuses : ins.geometry_builds).Add();
    zeta.Add(rec.zeta);
  }
  result.aggregate = {{"zeta", zeta}};
  for (const AggregateMetric& metric : AggregateMetrics()) {
    MetricSummary summary;
    if (std::find(tasks.begin(), tasks.end(), metric.task) != tasks.end()) {
      for (const InstanceRecord& rec : result.instances) {
        if (const std::optional<double> v = metric.read(rec)) summary.Add(*v);
      }
    }
    result.aggregate.emplace_back(metric.name, summary);
  }
}

}  // namespace

const char* TaskKindName(TaskKind kind) {
  const auto k = static_cast<std::size_t>(kind);
  return k < std::size(kTasks) ? kTasks[k].name : "unknown";
}

// The metric table: each task's aggregate metrics, one row each, with the
// rows of a task together and the tasks in kTasks order.  The row order is
// the order of every aggregate and signature: moving a row moves every
// digest.
std::span<const AggregateMetric> AggregateMetrics() {
  using enum TaskKind;
  using enum MetricRole;
  using R = InstanceRecord;
  static constexpr AggregateMetric kMetrics[] = {
      {"alg1_size", kAlgorithm1, Read<&R::alg1_size>, kHeadline},
      {"alg1_admitted", kAlgorithm1, Read<&R::alg1_admitted>, kPlain},
      {"alg1_infeasible", kAlgorithm1, Failed<&R::alg1_feasible>, kViolation},
      {"greedy_size", kGreedyBaseline, Read<&R::greedy_size>, kHeadline},
      {"weighted_value", kWeighted, Read<&R::weighted_value>, kPlain},
      {"weighted_size", kWeighted, Read<&R::weighted_size>, kPlain},
      {"partition_classes", kPartitions, Read<&R::partition_classes>, kPlain},
      {"schedule_slots", kSchedule, Read<&R::schedule_slots>, kHeadline},
      {"schedule_invalid", kSchedule, Failed<&R::schedule_valid>, kViolation},
      {"pc_greedy_size", kPowerControl, Read<&R::pc_greedy_size>, kHeadline},
      {"pc_all_feasible", kPowerControl, Read<&R::pc_all_feasible>, kHeadline},
      {"pc_obstructed", kPowerControl, Read<&R::pc_obstructed>, kPlain},
      {"pc_gain_vs_uniform", kPowerControl, PcGainVsUniform, kHeadline},
      {"queue_throughput", kQueue, Read<&R::queue_throughput>, kHeadline},
      {"queue_mean_queue", kQueue, Read<&R::queue_mean_queue>, kPlain},
      {"queue_backlog_growth", kQueue, Read<&R::queue_backlog_growth>, kPlain},
      {"queue_unstable", kQueue, Read<&R::queue_unstable>, kHeadline},
      {"regret_successes", kRegret, Read<&R::regret_successes>, kHeadline},
      {"regret_transmit_rate", kRegret, Read<&R::regret_transmit_rate>, kPlain},
  };
  return kMetrics;
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

BatchPool::BatchPool(const BatchConfig& config, int threads)
    : config_(config) {
  EngineInstruments::Get().threads.Set(std::max(1, threads));
  if (threads <= 1) return;
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) workers_.emplace_back([this, t] { Work(t); });
}

BatchPool::~BatchPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    queue_.clear();
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int BatchPool::Submit(Batch batch, bool urgent) {
  const int n = batch.spec->instances;
  std::unique_lock<std::mutex> lock(mu_);
  const int id = static_cast<int>(jobs_.size());
  Job& job = jobs_.emplace_back();
  job.batch = std::move(batch);
  job.remaining = n;
  job.records.resize(static_cast<std::size_t>(n));
  job.errors.resize(static_cast<std::size_t>(n));
  // A retry goes first, instance 0 first, so its cell finishes soon and
  // releases what it holds.
  for (int i = 0; i < n; ++i) {
    if (urgent) {
      queue_.push_front({id, n - 1 - i});
    } else {
      queue_.push_back({id, i});
    }
  }
  lock.unlock();
  work_cv_.notify_all();
  return id;
}

void BatchPool::Work(int worker) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    const Unit unit = queue_.front();
    queue_.pop_front();
    RunUnit(unit, worker, lock);
  }
}

// Runs one unit with `lock` released, then files its record (or failure)
// under it.  A unit that throws records the failure in its instance's slot;
// every unit gets its attempt regardless of scheduling, so the lowest
// failed index is deterministic under any thread count.  The batch's last
// unit closes its batch.<name> span and hands it to the coordinator.
void BatchPool::RunUnit(Unit unit, int worker,
                        std::unique_lock<std::mutex>& lock) {
  Job& job = jobs_[static_cast<std::size_t>(unit.batch)];
  const Batch& batch = job.batch;
  lock.unlock();
  sinr::KernelArena* arena =
      worker < static_cast<int>(config_.arenas.size()) ? &config_.arenas[worker]
                                                       : nullptr;
  InstanceRecord rec;
  std::optional<std::string> error;
  const obs::Instant start = obs::Now();
  try {
    if (unit.index == batch.fault_instance) {
      throw InjectedFault(batch.fault_message);
    }
    rec = RunInstance(*batch.spec, unit.index, config_.tasks, config_.pairing,
                      batch.geometry, arena);
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown exception";
  }
  const obs::Instant end = obs::Now();
  lock.lock();
  const std::size_t slot = static_cast<std::size_t>(unit.index);
  job.records[slot] = std::move(rec);
  job.errors[slot] = std::move(error);
  job.start = std::min(job.start, start);
  job.end = std::max(job.end, end);
  if (--job.remaining == 0) {
    obs::RecordSpan("batch." + batch.spec->name, nullptr, "batch", job.start,
                    job.end);
    done_.push_back(unit.batch);
    done_cv_.notify_one();
  }
}

BatchPool::Completion BatchPool::Next() {
  std::unique_lock<std::mutex> lock(mu_);
  while (done_.empty()) {
    if (workers_.empty()) {
      DL_CHECK(!queue_.empty(), "Next needs a submitted, unreturned batch");
      const Unit unit = queue_.front();
      queue_.pop_front();
      RunUnit(unit, 0, lock);
    } else {
      done_cv_.wait(lock);
    }
  }
  Completion done;
  done.id = done_.front();
  done_.pop_front();
  Job& job = jobs_[static_cast<std::size_t>(done.id)];
  done.start = job.start;
  done.end = job.end;
  const ScenarioSpec& spec = *job.batch.spec;
  std::vector<InstanceRecord> records = std::move(job.records);
  const std::vector<std::optional<std::string>> errors = std::move(job.errors);
  job.batch.geometry = {};  // the caller holds the lease if it needs more
  lock.unlock();

  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (errors[i]) {
      done.status = core::Status::Internal("instance " + std::to_string(i) +
                                           ": " + *errors[i]);
      return done;
    }
  }
  done.result.spec = spec;
  done.result.instances = std::move(records);
  done.result.batch_wall_ms =
      obs::MillisBetween(done.start, done.end);
  Aggregate(done.result, config_.tasks);
  return done;
}

BatchRunner::BatchRunner(BatchConfig config) : config_(std::move(config)) {}

std::vector<ScenarioResult> BatchRunner::Run(
    std::span<const ScenarioSpec> specs) const {
  // Runtime input is rejected as a recoverable error before any worker
  // starts; an invalid lambda, say, would otherwise flow straight into
  // Rng::Chance and silently distort the Bernoulli arrival process.
  int units = 0;
  for (const ScenarioSpec& spec : specs) {
    core::ThrowIfError(ValidateScenarioSpec(spec));
    units += spec.instances;
  }
  int threads = ResolveThreads(config_.threads);
  DL_CHECK(config_.arenas.empty() ||
               static_cast<int>(config_.arenas.size()) >= threads,
           "arena span must cover every worker thread");
  threads = std::max(1, std::min(threads, units));

  std::vector<ScenarioResult> results(specs.size());
  std::vector<core::Status> statuses(specs.size());
  {
    BatchPool pool(config_, threads);
    // Keys are adopted in spec order, so the cache's LRU accounting is the
    // same under any schedule.
    for (const ScenarioSpec& spec : specs) {
      BatchPool::Batch batch;
      batch.spec = &spec;
      if (config_.geometry != nullptr) {
        batch.geometry = config_.geometry->Adopt(spec);
      }
      batch.fault_instance = config_.fault_instance;
      batch.fault_message = config_.fault_message;
      pool.Submit(std::move(batch));
    }
    for (std::size_t left = specs.size(); left > 0; --left) {
      BatchPool::Completion done = pool.Next();
      const std::size_t s = static_cast<std::size_t>(done.id);
      results[s] = std::move(done.result);
      statuses[s] = std::move(done.status);
    }
  }
  for (const core::Status& status : statuses) core::ThrowIfError(status);
  return results;
}

ScenarioResult BatchRunner::RunOne(const ScenarioSpec& spec) const {
  return std::move(Run(std::span(&spec, 1)).front());
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
