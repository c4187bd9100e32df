// Batched multi-instance execution of deployment scenarios over warm
// kernel caches.
//
// BatchRunner takes a list of ScenarioSpecs, instantiates every instance of
// every family, builds each instance's sinr::KernelCache exactly once, and
// runs a pluggable set of algorithm tasks (Algorithm 1, the greedy baseline,
// weighted capacity, the Lemma 4.1 partition, full scheduling, the cached
// power-control oracle) against the warm cache.  Every (spec, instance)
// unit of a Run goes to one BatchPool -- one queue, one set of workers, no
// barrier between specs -- but every deterministic statistic is invariant
// under the thread count:
//   * instances are built from (spec, index) alone (see BuildInstance), so
//     a worker's identity never leaks into an instance;
//   * per-instance records land in a preallocated slot indexed by instance,
//     not in arrival order;
//   * each spec's aggregates are reduced sequentially in instance order once
//     its last unit ends, so floating-point sums always associate the same
//     way.
// AggregateSignature() serialises exactly the deterministic part of a
// report; tests and benches assert it is bit-identical between 1-thread and
// N-thread runs.  Wall-clock fields (stage breakdowns, batch time,
// throughput) are measured per run and are the only non-deterministic
// outputs.
#pragma once

#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/status.h"
#include "engine/scenario.h"
#include "obs/stage_stats.h"
#include "obs/trace.h"
#include "sinr/kernel.h"

namespace decaylib::engine {

// The algorithm tasks a batch can run against each instance's warm kernel.
// Every task runs on the instance's actual power assignment; for specs with
// power_tau != 0 the kernels are non-uniform, where feasibility, schedule
// validity and class budgets remain exact (affectance is power-aware) but
// the paper's *guarantees* for kAlgorithm1/kPartitions -- approximation
// factor, zeta-separation of the Lemma 4.1 classes -- are stated for
// uniform power only and carry over heuristically.
enum class TaskKind {
  kAlgorithm1,      // RunAlgorithm1 at the instance's zeta
  kGreedyBaseline,  // GreedyFeasible over all links
  kWeighted,        // WeightedAlgorithm1 with per-instance random weights
  kPartitions,      // Lemma41Partition of Algorithm 1's feasible set
  kSchedule,        // ScheduleLinks (Algorithm 1 extractor)
  kPowerControl,    // cached Foschini-Miljanic oracle: greedy admission under
                    // arbitrary power control + all-links verdicts, charting
                    // the uniform-vs-power-control feasibility gap
  kQueue,           // Bernoulli-arrival queueing simulation over the warm
                    // kernel (spec.dynamics: lambda, scheduler, slots);
                    // charts throughput / backlog / the stability indicator
  kRegret,          // Asgeirsson-Mitra no-regret capacity game over the warm
                    // kernel (spec.dynamics: learning rate, penalty, rounds)
};

// All tasks, in the canonical execution order.
std::vector<TaskKind> AllTasks();

// Number of TaskKind values (per-kind tables are indexed by
// static_cast<int>(kind)).
inline constexpr int kNumTaskKinds = 8;

// Short stable name of a task kind ("algorithm1", "queue", ...): the
// per-stage key used by StageStats ("task.<name>"), trace span names and
// the metric catalogue.
const char* TaskKindName(TaskKind kind);

struct BatchConfig {
  int threads = 0;  // worker threads; 0 = hardware concurrency
  std::vector<TaskKind> tasks = AllTasks();
  // Optional per-worker kernel arenas: worker t rebuilds every instance
  // kernel in arenas[t] instead of allocating a fresh KernelCache.  When
  // non-empty the span must cover the resolved thread count and outlive
  // every Run; results are bit-identical either way (the sweep runner uses
  // this to keep matrix slabs warm across an entire parameter grid).
  std::span<sinr::KernelArena> arenas = {};
  // Optional shared geometry cache: instances are configured from warm
  // ScenarioGeometry slots instead of re-sampled, so specs that differ only
  // in non-geometric fields (power_tau, beta, noise, explicit zeta) skip
  // space sampling and link pairing entirely.  Run adopts every spec's key
  // in spec order before its units run.  The cache must outlive every Run
  // and must not be used by two concurrent Runs; results are bit-identical
  // with or without it (the sweep runner shares one across a whole grid).
  GeometryCache* geometry = nullptr;
  // Link-pairing route inside instance builds; kSortGreedy forces the
  // O(n^2 log n) reference path (A/B baseline).  Result-invisible.
  PairingMode pairing = PairingMode::kAuto;
  // Fault injection: when >= 0, the worker that picks up this instance
  // index of any spec throws InjectedFault{fault_message} instead of
  // running it.  The sweep runner arms the same mechanism per (cell,
  // attempt) batch (BatchPool::Batch) to exercise its failure isolation
  // and retry paths end to end, through the real worker pool.
  int fault_instance = -1;
  std::string fault_message = "injected fault";
};

// The exception an armed BatchConfig::fault_instance raises inside a
// worker.  Deliberately a plain runtime_error subtype: the recovery path
// must not be able to special-case it.
struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Per-instance outcome.  Algorithm fields are -1 when the task was not in
// the batch's task set; everything except `stages` is deterministic.
struct InstanceRecord {
  int index = -1;
  int links = 0;
  double zeta = 0.0;

  int alg1_size = -1;
  int alg1_admitted = -1;
  bool alg1_feasible = true;
  int greedy_size = -1;
  double weighted_value = -1.0;
  int weighted_size = -1;
  int partition_classes = -1;
  int schedule_slots = -1;
  bool schedule_valid = true;
  int pc_greedy_size = -1;   // greedy admission with the power-control oracle
  int pc_all_feasible = -1;  // 1 iff all links feasible under some power
  int pc_obstructed = -1;    // 1 iff some pair can never coexist
  // Dynamics tasks (negative when not run).  Both simulate over the warm
  // kernel with an rng stream deterministic in (spec.seed, instance index).
  double queue_throughput = -1.0;     // post-warmup served packets per slot
  double queue_mean_queue = -1.0;     // time-average backlog, post warmup
  double queue_backlog_growth = -1.0; // Q4/Q3 backlog ratio (~1 when stable)
  int queue_unstable = -1;  // 1 iff growth above threshold AND backlog
                            // non-trivial (> one slot of arrivals queued)
  double regret_successes = -1.0;     // mean concurrent successes in the tail
  double regret_transmit_rate = -1.0; // mean fraction of links transmitting

  // Under KernelMode::kFarField the dense kernel is built lazily, only when
  // a task without a far-field path runs; kernel_built records whether it
  // was.
  bool kernel_built = false;  // dense kernel was built for this instance
  bool geometry_reused = false;  // served from a warm GeometryCache slot

  // Wall clock, non-deterministic: one entry per stage the instance ran,
  // each the Finish() of the obs::Span that timed it -- geometry_build or
  // geometry_reuse (sampling / cache acquire + ConfigureInstance),
  // kernel_build (KernelCache build or arena rebuild; only when
  // kernel_built), farfield_build (kFarField only) and task.<kind> per task
  // run.  A task that builds the dense kernel lazily is charged its own time
  // only; the build goes to kernel_build.  A task kind that did not run has
  // no entry.  The sequential reduction merges these into
  // ScenarioResult::stage_stats.
  obs::StageStats stages;
};

// Running sum/min/max/count of one metric, reduced in instance order.
struct MetricSummary {
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  long long count = 0;

  void Add(double v);
  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }

  friend bool operator==(const MetricSummary&, const MetricSummary&) = default;
};

// How the reports read an aggregate metric: headline metrics are the
// metric columns of the report tables, ViolationCount sums the violation
// metrics, and plain ones reach only signatures, JSON and CSV.
enum class MetricRole { kPlain, kHeadline, kViolation };

// One row of the engine's metric table: a metric `task` reports, and the
// reader of its per-instance value (nullopt: the instance adds nothing).
struct AggregateMetric {
  const char* name;
  TaskKind task;
  std::optional<double> (*read)(const InstanceRecord&);
  MetricRole role;
};

// The metric table, in task order: every ScenarioResult::aggregate is zeta
// and then one entry per row (count 0 when the row's task did not run).
// A new metric is one row; a new task is a TaskKind, a task-table entry,
// its InstanceRecord fields (-1 when not run), its RunInstance case and
// its rows.
std::span<const AggregateMetric> AggregateMetrics();

// One scenario family's batch outcome.
struct ScenarioResult {
  ScenarioSpec spec;
  std::vector<InstanceRecord> instances;  // ordered by instance index
  // Deterministic aggregate: (metric name, summary), see AggregateMetrics.
  std::vector<std::pair<std::string, MetricSummary>> aggregate;

  // Non-deterministic timing.  batch_wall_ms is the batch.<name> span: from
  // the start of the spec's first unit to the end of its last.  Specs of
  // one Run share the pool, so their spans may overlap and need not sum to
  // the Run's wall time.
  double batch_wall_ms = 0.0;
  // Worker-summed per-stage breakdown: every instance record's stages
  // merged in instance order after the pool drains.  Like every *_ms field
  // it is non-deterministic and never enters AggregateSignature.
  obs::StageStats stage_stats;

  double Throughput() const {  // instances per second of batch wall time
    return batch_wall_ms > 0.0
               ? 1000.0 * static_cast<double>(instances.size()) / batch_wall_ms
               : 0.0;
  }
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchConfig config = {});

  // Runs every instance of every spec through one BatchPool; one
  // KernelCache per instance, all configured tasks against the warm cache.
  //
  // Runtime-input failures surface as core::StatusError: an invalid spec
  // (ValidateScenarioSpec, every spec checked in order) throws before any
  // worker starts, and a worker that throws -- injected fault or real -- is
  // captured per instance, every other unit still runs, and the lowest
  // failed (spec, index) is rethrown as kInternal "instance <i>: ..." after
  // the pool drains (so the error is deterministic under any thread count).
  // Contract violations (short arena span) stay DL_CHECKs.
  std::vector<ScenarioResult> Run(std::span<const ScenarioSpec> specs) const;

  // Run over one spec.
  ScenarioResult RunOne(const ScenarioSpec& spec) const;

  const BatchConfig& config() const noexcept { return config_; }

 private:
  BatchConfig config_;
};

// The one worker pool behind both runners.  Every instance of every
// submitted batch is one unit; `threads` workers take units from one queue
// in submission order, across batch boundaries, so a batch never waits for
// another batch's slowest instance.  The owning thread (the coordinator)
// submits batches and collects completions through Next(), in completion
// order, while the workers keep running; at threads <= 1 no thread is
// spawned and Next() runs the queued units itself.  Worker t rebuilds
// kernels in config.arenas[t] when arenas are given; config.geometry and
// config.fault_instance are ignored (each batch carries its own).
class BatchPool {
 public:
  struct Batch {
    const ScenarioSpec* spec = nullptr;  // must outlive the batch's Next()
    GeometryCache::Lease geometry;       // empty: instances sample their own
    int fault_instance = -1;             // as BatchConfig::fault_instance
    std::string fault_message = "injected fault";
  };

  // A finished batch.  When `status` is ok, `result` holds every instance
  // record in index order, its stage breakdown and its reduced aggregate;
  // otherwise `status` is kInternal naming the lowest failed instance and
  // `result` is empty.  `start`/`end` bound the batch's units.
  struct Completion {
    int id = -1;  // Submit's return value
    ScenarioResult result;
    core::Status status;
    obs::Instant start;
    obs::Instant end;
  };

  BatchPool(const BatchConfig& config, int threads);
  ~BatchPool();  // drops queued units, joins the workers
  BatchPool(const BatchPool&) = delete;
  BatchPool& operator=(const BatchPool&) = delete;

  // Queues every instance of the batch (at the back, or at the front of the
  // queue when `urgent`, as for a retry) and returns its id.
  int Submit(Batch batch, bool urgent = false);

  // Blocks until a submitted batch not yet returned has finished.
  Completion Next();

 private:
  struct Unit {
    int batch;
    int index;
  };
  static constexpr obs::Instant kNever = obs::Instant::max();
  struct Job {
    Batch batch;
    int remaining = 0;  // units not yet ended
    std::vector<InstanceRecord> records;  // by instance index
    // By instance index: the error of each unit that threw.
    std::vector<std::optional<std::string>> errors;
    obs::Instant start = kNever;
    obs::Instant end;
  };

  void Work(int worker);
  void RunUnit(Unit unit, int worker, std::unique_lock<std::mutex>& lock);

  const BatchConfig& config_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<Unit> queue_;
  std::deque<Job> jobs_;  // by id; deque: push_back moves no job
  std::deque<int> done_;  // finished batch ids, in completion order
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Serialises the deterministic part of a report (spec identity + per-metric
// summaries, %.17g so doubles round-trip exactly).  Two runs of the same
// specs agree bit-for-bit on this string regardless of thread count.
std::string AggregateSignature(std::span<const ScenarioResult> results);

// The worker-pool size a config's `threads` value resolves to:
// the value itself when positive, hardware concurrency (min 1) at 0.
int ResolveThreads(int requested);

// Numeric-health check over a batch outcome: kNumericError naming the first
// aggregate whose populated summary (count > 0) carries a non-finite
// sum/min/max, Ok otherwise.  A NaN that leaks out of a kernel or simulator
// would silently poison every downstream mean; the sweep runner treats a
// failed check like any other cell failure.
core::Status AggregateHealth(const ScenarioResult& result);

}  // namespace decaylib::engine
