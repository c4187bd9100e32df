#include "replay.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "capacity/partitions.h"
#include "capacity/weighted.h"
#include "core/metricity.h"
#include "distributed/regret_game.h"
#include "dynamics/queue_system.h"
#include "geom/rng.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "scheduling/scheduler.h"
#include "sinr/farfield.h"
#include "sinr/power_control.h"
#include "sweep/checkpoint.h"

namespace decaylib::enginebench {

namespace {

using Clock = std::chrono::steady_clock;
using engine::InstanceRecord;
using engine::ScenarioSpec;
using engine::TaskKind;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Runs f() inside a trace span and adds its wall time to `acc`.
template <class F>
auto Timed(double& acc, const char* span_name, F&& f) {
  obs::Span span(span_name, nullptr, "layer");
  struct Charge {
    double& acc;
    Clock::time_point start;
    ~Charge() { acc += MsSince(start); }
  } charge{acc, Clock::now()};
  return f();
}

// --- mirrors of the engine's private task plumbing -------------------------
//
// engine/batch_runner.cc keeps these in an anonymous namespace.  They are
// restated here from public calls only; the record comparison below fails
// the run if they ever drift from the engine's.

geom::Rng TaskRng(const ScenarioSpec& spec, std::uint64_t salt, int index) {
  return geom::Rng(geom::Mix64(spec.seed ^ salt) +
                   0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(index) + 1));
}

constexpr std::uint64_t kWeightStreamSalt = 0xa5b35705f00dfeedULL;
constexpr std::uint64_t kQueueStreamSalt = 0x517cc1b727220a95ULL;
constexpr std::uint64_t kRegretStreamSalt = 0x2545f4914f6cdd1dULL;
constexpr int kPowerControlIterations = 300;
constexpr double kPowerControlTol = 1e-7;

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

const char* TaskSpanName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kAlgorithm1: return "capacity.algorithm1";
    case TaskKind::kGreedyBaseline: return "capacity.greedy";
    case TaskKind::kWeighted: return "capacity.weighted";
    case TaskKind::kPartitions: return "capacity.partitions";
    case TaskKind::kSchedule: return "scheduling.schedule";
    case TaskKind::kPowerControl: return "sinr.power_control";
    case TaskKind::kQueue: return "dynamics.queue";
    case TaskKind::kRegret: return "distributed.regret";
  }
  return "task.unknown";
}

// Tasks with a far-field path; every other task needs the dense kernel.
bool HasFarFieldPath(TaskKind kind) {
  return kind == TaskKind::kAlgorithm1 || kind == TaskKind::kGreedyBaseline ||
         kind == TaskKind::kSchedule;
}

// The pairing BuildGeometry ran, re-run on the built space.
std::vector<sinr::Link> PairingProbe(const ScenarioSpec& spec,
                                     engine::PairingMode pairing,
                                     const engine::ScenarioGeometry& geom) {
  const bool monotone = !geom.points.empty() && spec.sigma_db == 0.0;
  if (pairing == engine::PairingMode::kAuto && monotone) {
    return engine::PairLinksByDecayGrid(*geom.space, geom.points, spec.alpha);
  }
  return engine::PairLinksByDecay(*geom.space);
}

// The first deterministic field on which two records differ ("" = none).
std::string FirstDifference(const InstanceRecord& got,
                            const InstanceRecord& want) {
#define ENGINEBENCH_FIELD(f) \
  if (!(got.f == want.f)) return #f;
  ENGINEBENCH_FIELD(index)
  ENGINEBENCH_FIELD(links)
  ENGINEBENCH_FIELD(zeta)
  ENGINEBENCH_FIELD(alg1_size)
  ENGINEBENCH_FIELD(alg1_admitted)
  ENGINEBENCH_FIELD(alg1_feasible)
  ENGINEBENCH_FIELD(greedy_size)
  ENGINEBENCH_FIELD(weighted_value)
  ENGINEBENCH_FIELD(weighted_size)
  ENGINEBENCH_FIELD(partition_classes)
  ENGINEBENCH_FIELD(schedule_slots)
  ENGINEBENCH_FIELD(schedule_valid)
  ENGINEBENCH_FIELD(pc_greedy_size)
  ENGINEBENCH_FIELD(pc_all_feasible)
  ENGINEBENCH_FIELD(pc_obstructed)
  ENGINEBENCH_FIELD(queue_throughput)
  ENGINEBENCH_FIELD(queue_mean_queue)
  ENGINEBENCH_FIELD(queue_backlog_growth)
  ENGINEBENCH_FIELD(queue_unstable)
  ENGINEBENCH_FIELD(regret_successes)
  ENGINEBENCH_FIELD(regret_transmit_rate)
  ENGINEBENCH_FIELD(kernel_built)
  ENGINEBENCH_FIELD(geometry_reused)
#undef ENGINEBENCH_FIELD
  return "";
}

class Replayer {
 public:
  Replayer(const std::vector<TaskKind>& tasks, engine::PairingMode pairing,
           ReplayResult& out)
      : tasks_(tasks), pairing_(pairing), out_(out) {}

  // RunInstance, one layer call at a time.  `cache` / `arena` as the
  // engine's BatchConfig::geometry / arenas.
  InstanceRecord Instance(const ScenarioSpec& spec, int index,
                          engine::GeometryCache* cache,
                          sinr::KernelArena* arena);

 private:
  const std::vector<TaskKind>& tasks_;
  engine::PairingMode pairing_;
  ReplayResult& out_;
};

InstanceRecord Replayer::Instance(const ScenarioSpec& spec, int index,
                                  engine::GeometryCache* cache,
                                  sinr::KernelArena* arena) {
  LayerMs& ms = out_.ms;
  InstanceRecord rec;
  rec.index = index;
  const std::string label = spec.name + " #" + std::to_string(index);
  obs::Span instance_span(label, nullptr, "instance");

  // Geometry: built here, or acquired from the cache (which builds a cold
  // slot itself -- that Acquire's time is charged as space fill + pairing,
  // a warm one as cache work).
  std::optional<engine::ScenarioGeometry> local_geom;
  const engine::ScenarioGeometry* geom = nullptr;
  bool built = true;
  if (cache != nullptr) {
    if (spec.zeta < 0.0) {
      // Acquire would measure metricity inside the call, where the replay
      // cannot separate it from the build.
      throw core::StatusError(core::Status::FailedPrecondition(
          "replay of measured-zeta specs through a geometry cache"));
    }
    const Clock::time_point start = Clock::now();
    {
      obs::Span span("engine.geometry_acquire", nullptr, "layer");
      geom = &cache->Acquire(spec, index, pairing_, &built);
    }
    (built ? ms.acquire_cold : ms.acquire_warm) += MsSince(start);
  } else {
    local_geom.emplace(Timed(ms.build_geometry, "engine.build_geometry", [&] {
      return engine::BuildGeometry(spec, index, pairing_);
    }));
    geom = &*local_geom;
  }
  rec.geometry_reused = !built;
  if (built) {
    const std::vector<sinr::Link> probe =
        Timed(ms.pairing_probe, "bench.pairing_probe",
              [&] { return PairingProbe(spec, pairing_, *geom); });
    if (probe != geom->links) {
      out_.mismatches.push_back(label + ": pairing probe differs from the "
                                        "geometry's links");
    }
  }
  if (local_geom && spec.zeta < 0.0) {
    local_geom->measured_zeta =
        Timed(ms.metricity, "core.compute_metricity",
              [&] { return core::ComputeMetricity(*local_geom->space).zeta; });
    local_geom->zeta_measured = true;
  }
  const long long nodes = 2LL * spec.links;
  out_.decay_space_bytes =
      std::max(out_.decay_space_bytes, nodes * nodes * 8);

  const engine::ScenarioInstance instance =
      Timed(ms.configure, "engine.configure",
            [&] { return engine::ConfigureInstance(spec, *geom); });

  std::optional<sinr::KernelCache> local_kernel;
  const sinr::KernelCache* kernel = nullptr;
  const auto ensure_kernel = [&]() -> const sinr::KernelCache& {
    if (kernel == nullptr) {
      Timed(ms.kernel_build, "sinr.kernel_build", [&] {
        if (arena != nullptr) {
          kernel = &arena->Rebuild(instance.system(), instance.power());
        } else {
          local_kernel.emplace(instance.system(), instance.power());
          kernel = &*local_kernel;
        }
      });
      rec.kernel_built = true;
      out_.kernel_bytes = std::max(out_.kernel_bytes, kernel->MemoryBytes());
    }
    return *kernel;
  };

  std::optional<sinr::FarFieldKernel> farfield;
  if (spec.kernel_mode == engine::KernelMode::kFarField) {
    Timed(ms.farfield_build, "sinr.farfield_build", [&] {
      sinr::FarFieldConfig fc;
      fc.epsilon = spec.farfield_epsilon;
      farfield.emplace(geom->points, instance.system().links(), spec.alpha,
                       instance.system().config(), instance.power(), fc);
    });
    out_.farfield_bytes =
        std::max(out_.farfield_bytes, farfield->MemoryBytes());
  } else {
    ensure_kernel();
  }
  rec.links = instance.NumLinks();
  rec.zeta = instance.zeta();

  const std::vector<int> all = sinr::AllLinks(instance.system());
  const double zeta = instance.zeta();
  std::optional<capacity::Algorithm1Result> alg1;
  const auto ensure_alg1 = [&] {
    if (!alg1) alg1 = capacity::RunAlgorithm1(ensure_kernel(), zeta);
  };

  for (const TaskKind task : tasks_) {
    // The engine builds a lazy dense kernel inside the first task that
    // needs it; the replay builds it just before, so the kernel's time is
    // not charged to the task.
    if (!farfield || !HasFarFieldPath(task)) ensure_kernel();
    double& task_ms = ms.task[static_cast<std::size_t>(task)];
    Timed(task_ms, TaskSpanName(task), [&] {
      switch (task) {
        case TaskKind::kAlgorithm1: {
          if (farfield) {
            const sinr::FarFieldAlg1Result res =
                sinr::FarFieldRunAlgorithm1(*farfield, zeta);
            rec.alg1_size = static_cast<int>(res.selected.size());
            rec.alg1_admitted = static_cast<int>(res.admitted.size());
            rec.alg1_feasible = res.selected.size() <= 1 ||
                                farfield->IsFeasibleCertified(res.selected);
          } else {
            ensure_alg1();
            rec.alg1_size = static_cast<int>(alg1->selected.size());
            rec.alg1_admitted = static_cast<int>(alg1->admitted.size());
            rec.alg1_feasible = alg1->selected.size() <= 1 ||
                                ensure_kernel().IsFeasible(alg1->selected);
          }
          break;
        }
        case TaskKind::kGreedyBaseline: {
          rec.greedy_size = static_cast<int>(
              farfield ? sinr::FarFieldGreedyFeasible(*farfield).size()
                       : capacity::GreedyFeasible(ensure_kernel(), all).size());
          break;
        }
        case TaskKind::kWeighted: {
          geom::Rng rng = TaskRng(spec, kWeightStreamSalt, index);
          std::vector<double> weights(static_cast<std::size_t>(rec.links));
          for (double& w : weights) w = rng.Uniform(0.5, 2.0);
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
          if (farfield) {
            const sinr::FarFieldSchedule schedule =
                sinr::FarFieldScheduleLinks(*farfield, zeta);
            rec.schedule_slots = static_cast<int>(schedule.slots.size());
            rec.schedule_valid =
                sinr::FarFieldValidateSchedule(*farfield, schedule, all);
          } else {
            const scheduling::Schedule schedule = scheduling::ScheduleLinks(
                ensure_kernel(), zeta, scheduling::Extractor::kAlgorithm1,
                all);
            rec.schedule_slots = schedule.Length();
            rec.schedule_valid =
                scheduling::ValidateSchedule(ensure_kernel(), schedule, all);
          }
          break;
        }
        case TaskKind::kPowerControl: {
          const sinr::KernelCache& k = ensure_kernel();
          rec.pc_greedy_size =
              static_cast<int>(GreedyPowerControlFeasible(k).size());
          rec.pc_all_feasible =
              sinr::FeasibleWithPowerControl(k, all, kPowerControlIterations,
                                             kPowerControlTol)
                      .feasible
                  ? 1
                  : 0;
          rec.pc_obstructed = sinr::HasPairwiseObstruction(k, all) ? 1 : 0;
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
    });
  }
  ++out_.instances;
  return rec;
}

int Limit(int instances, const ReplayOptions& options) {
  return options.instances_per_spec > 0
             ? std::min(instances, options.instances_per_spec)
             : instances;
}

void Check(const InstanceRecord& got, const InstanceRecord& want,
           const std::string& label, ReplayResult& out) {
  const std::string field = FirstDifference(got, want);
  if (!field.empty()) {
    out.mismatches.push_back(label + ": replay differs from the engine "
                                     "record in " + field);
  }
}

void ReplayBatch(const Job& job, const RunOutcome& reference,
                 const ReplayOptions& options, ReplayResult& out) {
  Replayer replayer(job.batch.tasks, job.batch.pairing, out);
  for (std::size_t s = 0; s < job.specs.size(); ++s) {
    const ScenarioSpec& spec = job.specs[s];
    if (s >= reference.batch.size()) {
      out.mismatches.push_back(spec.name + ": no engine result to compare");
      continue;
    }
    obs::Span batch_span("batch " + spec.name, nullptr, "batch");
    for (int i = 0; i < Limit(spec.instances, options); ++i) {
      const InstanceRecord rec = replayer.Instance(spec, i, nullptr, nullptr);
      Check(rec, reference.batch[s].instances[static_cast<std::size_t>(i)],
            spec.name + " #" + std::to_string(i), out);
    }
  }
}

// SweepRunner::Run, one cell at a time on one worker: a geometry cache and
// a kernel arena per sweep, the sidecar rewritten after every cell and once
// more at the end (checkpoint_every = 1).
void ReplaySweeps(const Job& job, const RunOutcome& reference,
                  const ReplayOptions& options, ReplayResult& out) {
  for (std::size_t w = 0; w < job.sweeps.size(); ++w) {
    const sweep::SweepSpec& spec = job.sweeps[w];
    if (w >= reference.sweeps.size()) {
      out.mismatches.push_back(spec.name + ": no engine result to compare");
      continue;
    }
    Replayer replayer(spec.tasks, job.sweep.pairing, out);
    const sweep::SweepResult& ref = reference.sweeps[w];
    const std::vector<sweep::SweepCell> cells = sweep::ExpandGrid(spec);
    engine::GeometryCache cache;
    cache.SetGenerations(std::max(1, job.sweep.geometry_generations));
    sinr::KernelArena arena;
    const bool checkpointing = !options.checkpoint_path.empty() &&
                               !job.sweep.checkpoint_path.empty();
    sweep::SweepCheckpoint doc;
    doc.sweep = spec.name;
    doc.spec_hash = checkpointing ? sweep::SweepSpecHash(spec) : "";
    doc.grid = static_cast<long long>(cells.size());
    const auto save = [&] {
      Timed(out.ms.checkpoint_write, "sweep.save_checkpoint", [&] {
        core::ThrowIfError(sweep::SaveCheckpoint(options.checkpoint_path, doc));
      });
    };

    for (const sweep::SweepCell& cell : cells) {
      const std::size_t c = static_cast<std::size_t>(cell.index);
      if (c >= ref.cells.size() || !ref.cells[c].outcome.ok) {
        out.mismatches.push_back(cell.spec.name +
                                 ": engine cell missing or failed");
        continue;
      }
      const engine::ScenarioResult& want = ref.cells[c].result;
      obs::Span cell_span("cell " + cell.spec.name, nullptr, "cell");
      engine::GeometryCache* geometry =
          job.sweep.reuse_geometry ? &cache : nullptr;
      if (geometry != nullptr) {
        Timed(out.ms.geometry_prepare, "engine.geometry_prepare",
              [&] { geometry->Prepare(cell.spec); });
      }
      for (int i = 0; i < Limit(cell.spec.instances, options); ++i) {
        const InstanceRecord rec = replayer.Instance(
            cell.spec, i, geometry, job.sweep.reuse_arena ? &arena : nullptr);
        Check(rec, want.instances[static_cast<std::size_t>(i)],
              cell.spec.name + " #" + std::to_string(i), out);
      }
      if (checkpointing) {
        sweep::CheckpointCell saved;
        saved.index = cell.index;
        saved.attempts = ref.cells[c].outcome.attempts;
        saved.instances = static_cast<int>(want.instances.size());
        saved.aggregate = want.aggregate;
        doc.cells.push_back(std::move(saved));
        save();
      }
    }
    if (checkpointing) save();
    out.geometry_builds += cache.builds();
    out.geometry_reuses += cache.reuses();
  }
}

}  // namespace

ReplayResult Replay(const Job& job, const RunOutcome& reference,
                    const ReplayOptions& options) {
  ReplayResult out;
  obs::Registry& registry = obs::Registry::Global();
  std::map<std::string, long long> before;
  if (options.trace) {
    obs::SetEnabled(true);
    before = registry.CounterValues();
    obs::TraceSink::Global().Start();
  }
  const Clock::time_point start = Clock::now();
  {
    obs::Span replay_span("replay " + job.workload, nullptr, "replay");
    if (job.is_sweep) {
      ReplaySweeps(job, reference, options, out);
    } else {
      ReplayBatch(job, reference, options, out);
    }
  }
  out.wall_ms = MsSince(start);
  if (options.trace) {
    obs::TraceSink::Global().Stop();
    for (const auto& [name, value] : registry.CounterValues()) {
      const auto it = before.find(name);
      out.counters[name] = value - (it == before.end() ? 0 : it->second);
    }
    obs::SetEnabled(false);
  }
  return out;
}

std::vector<Metric> LayerMetrics(const ReplayResult& replay,
                                 double untraced_ms) {
  const LayerMs& ms = replay.ms;
  const auto counter = [&](const char* name) {
    const auto it = replay.counters.find(name);
    return static_cast<double>(it == replay.counters.end() ? 0 : it->second);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto task = [&](TaskKind kind) {
    return ms.task[static_cast<std::size_t>(kind)];
  };

  // Space fill is the geometry build (BuildGeometry, or the cold Acquire
  // that ran it) minus the pairing inside it, estimated by the probe.
  const double space_fill =
      std::max(0.0, ms.build_geometry + ms.acquire_cold - ms.pairing_probe);
  const double accepts = counter("sinr.farfield_certified_accepts");
  const double rejects = counter("sinr.farfield_certified_rejects");
  const double fallbacks = counter("sinr.farfield_exact_fallbacks");

  std::vector<Metric> rows = {
      {"engine.space_fill_ms", space_fill, "ms", "derived"},
      {"engine.pairing_ms", ms.pairing_probe, "ms", "measured"},
      {"core.metricity_ms", ms.metricity, "ms", "measured"},
      {"engine.configure_ms", ms.configure, "ms", "measured"},
      {"engine.geometry_acquire_ms", ms.geometry_prepare + ms.acquire_warm,
       "ms", "measured"},
      {"sweep.geometry_reuse_rate",
       ratio(static_cast<double>(replay.geometry_reuses),
             static_cast<double>(replay.geometry_builds +
                                 replay.geometry_reuses)),
       "ratio", "counted"},
      {"sinr.kernel_build_ms", ms.kernel_build, "ms", "measured"},
      {"sinr.kernel_builds", counter("sinr.kernel_builds"), "count",
       "counted"},
      {"sinr.arena_warm_skip_rate",
       ratio(counter("sinr.arena_warm_skips"), counter("sinr.arena_rebuilds")),
       "ratio", "counted"},
      {"sinr.farfield_build_ms", ms.farfield_build, "ms", "measured"},
      {"sinr.admission_checks", counter("sinr.admission_checks"), "count",
       "counted"},
      {"sinr.farfield_admission_checks",
       counter("sinr.farfield_admission_checks"), "count", "counted"},
      {"sinr.farfield_certified_rate",
       ratio(accepts + rejects, accepts + rejects + fallbacks), "ratio",
       "counted"},
      {"sinr.farfield_exact_fallbacks", fallbacks, "count", "counted"},
      {"capacity.algorithm1_ms", task(TaskKind::kAlgorithm1), "ms",
       "measured"},
      {"capacity.greedy_ms", task(TaskKind::kGreedyBaseline), "ms",
       "measured"},
      {"scheduling.schedule_ms", task(TaskKind::kSchedule), "ms", "measured"},
      {"capacity.weighted_ms", task(TaskKind::kWeighted), "ms", "measured"},
      {"capacity.partitions_ms", task(TaskKind::kPartitions), "ms",
       "measured"},
      {"sinr.power_control_ms", task(TaskKind::kPowerControl), "ms",
       "measured"},
      {"dynamics.queue_ms", task(TaskKind::kQueue), "ms", "measured"},
      {"distributed.regret_ms", task(TaskKind::kRegret), "ms", "measured"},
      {"sweep.checkpoint_write_ms", ms.checkpoint_write, "ms", "measured"},
      {"bench.pairing_probe_ms", ms.pairing_probe, "ms", "measured"},
  };
  // The "ms" rows are disjoint slices of the replay's wall time: space fill
  // and pairing split the builds, and the probe row is the probe's own
  // re-run.  What no layer call covers is the replay's loop overhead.
  double attributed = 0.0;
  for (const Metric& m : rows) {
    if (m.unit == "ms") attributed += m.value;
  }
  rows.push_back({"engine.unattributed_ms",
                  std::max(0.0, replay.wall_ms - attributed), "ms",
                  "derived"});
  rows.push_back({"replay.traced_wall_ms", replay.wall_ms, "ms", "measured"});
  rows.push_back({"replay.tracing_overhead_pct",
                  untraced_ms > 0.0
                      ? 100.0 * (replay.wall_ms / untraced_ms - 1.0)
                      : 0.0,
                  "%", "derived"});
  rows.push_back({"core.decay_space_bytes",
                  static_cast<double>(replay.decay_space_bytes), "bytes",
                  "computed"});
  rows.push_back({"sinr.kernel_bytes",
                  static_cast<double>(replay.kernel_bytes), "bytes",
                  "reported"});
  rows.push_back({"sinr.farfield_bytes",
                  static_cast<double>(replay.farfield_bytes), "bytes",
                  "reported"});
  return rows;
}

}  // namespace decaylib::enginebench
