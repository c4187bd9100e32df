#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <thread>

#include "engine/report.h"
#include "geom/rng.h"

namespace decaylib::enginebench {

namespace {

// Load sizes.  batch_mix keeps every builtin's shape and only scales the
// instance size; sweep_grid multiplies every builtin sweep's link counts so
// the grids are not trivial; the 4k pair follows the ROADMAP baseline.
constexpr int kBatchMixLinks = 96;
constexpr int kBatchMixInstances = 8;
constexpr int kSweepLinkScale = 3;
constexpr int kLinks4k = 4096;
constexpr int kInstances4k = 2;

// Pool size: the engine's default (hardware concurrency), capped at 4 so a
// bigger host runs the same job.
int PoolThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hc, 1u, 4u));
}

// Default seed: the builtin spec seed unchanged.  Any other seed moves
// every spec to an independent stream, deterministically.
std::uint64_t SeedFor(std::uint64_t builtin, std::uint64_t seed,
                      std::uint64_t default_seed) {
  if (seed == default_seed) return builtin;
  return builtin ^ geom::Mix64(seed * 0x9e3779b97f4a7c15ULL + 0x5bd1e995ULL);
}

Job BatchMixJob(std::uint64_t seed, std::uint64_t default_seed) {
  Job job;
  job.specs = engine::BuiltinScenarios();
  for (engine::ScenarioSpec& spec : job.specs) {
    spec.links = kBatchMixLinks;
    spec.instances = kBatchMixInstances;
    spec.seed = SeedFor(spec.seed, seed, default_seed);
  }
  job.batch.threads = PoolThreads();
  job.batch.tasks = engine::AllTasks();
  return job;
}

Job Uniform4kJob(engine::KernelMode mode, std::uint64_t seed,
                 std::uint64_t default_seed) {
  Job job;
  engine::ScenarioSpec spec = *engine::FindBuiltinScenario("uniform_dense");
  spec.links = kLinks4k;
  spec.instances = kInstances4k;
  spec.kernel_mode = mode;
  spec.seed = SeedFor(spec.seed, seed, default_seed);
  job.specs = {spec};
  job.batch.threads = std::min(PoolThreads(), kInstances4k);
  job.batch.tasks = {engine::TaskKind::kAlgorithm1,
                     engine::TaskKind::kGreedyBaseline,
                     engine::TaskKind::kSchedule};
  return job;
}

Job SweepGridJob(std::uint64_t seed, std::uint64_t default_seed,
                 const std::string& work_dir) {
  Job job;
  job.is_sweep = true;
  job.sweeps = sweep::BuiltinSweeps();
  for (sweep::SweepSpec& s : job.sweeps) {
    s.base.links *= kSweepLinkScale;
    s.base.seed = SeedFor(s.base.seed, seed, default_seed);
    for (sweep::SweepAxis& axis : s.axes) {
      if (axis.field != "links") continue;
      for (double& v : axis.values) v *= kSweepLinkScale;
    }
  }
  job.sweep.threads = PoolThreads();
  job.sweep.reuse_arena = true;
  job.sweep.reuse_geometry = true;
  job.sweep.checkpoint_path =
      (std::filesystem::path(work_dir) / "sweep_grid.ckpt.json").string();
  return job;
}

}  // namespace

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> workloads = {
      {"batch_mix", 1, "18f5a9f174e90350"},
      {"sweep_grid", 1, "bd495e9615b00dfb"},
      // Far-field admission decides exactly as dense admission does, and
      // the signature does not name the kernel mode: the pair must agree.
      {"farfield_4k", 1, "f5e6a9a3bf55e004"},
      {"dense_4k", 1, "f5e6a9a3bf55e004"},
  };
  return workloads;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Job MakeJob(const WorkloadInfo& workload, std::uint64_t seed,
            const std::string& work_dir) {
  const std::string name = workload.name;
  const std::uint64_t default_seed = workload.default_seed;
  Job job;
  if (name == "batch_mix") {
    job = BatchMixJob(seed, default_seed);
  } else if (name == "sweep_grid") {
    job = SweepGridJob(seed, default_seed, work_dir);
  } else if (name == "farfield_4k") {
    job = Uniform4kJob(engine::KernelMode::kFarField, seed, default_seed);
  } else {
    job = Uniform4kJob(engine::KernelMode::kDense, seed, default_seed);
  }
  job.workload = name;

  for (const engine::ScenarioSpec& spec : job.specs) {
    core::ThrowIfError(engine::ValidateScenarioSpec(spec));
    job.instances += spec.instances;
  }
  job.units = job.instances;
  for (const sweep::SweepSpec& s : job.sweeps) {
    core::ThrowIfError(sweep::ValidateSweepSpec(s));
    for (const sweep::SweepCell& cell : sweep::ExpandGrid(s)) {
      job.instances += cell.spec.instances;
      ++job.units;
    }
  }

  // Checkpoint-path setup: a fresh directory, no sidecar left over from an
  // earlier run (the runner never resumes, but a stale file would be
  // overwritten mid-measurement instead of created).
  if (!job.sweep.checkpoint_path.empty()) {
    std::filesystem::create_directories(work_dir);
    std::filesystem::remove(job.sweep.checkpoint_path);
  }
  return job;
}

RunOutcome RunJob(const Job& job, int threads) {
  RunOutcome out;
  const auto start = std::chrono::steady_clock::now();
  try {
    if (job.is_sweep) {
      sweep::SweepConfig config = job.sweep;
      if (threads > 0) config.threads = threads;
      out.sweeps = sweep::SweepRunner(config).RunAll(job.sweeps);
      for (const sweep::SweepResult& r : out.sweeps) {
        out.signature += sweep::SweepSignature(r);
        out.failed += r.cells_failed;
        out.violations += sweep::SweepViolationCount(r);
        for (const sweep::SweepCellResult& cell : r.cells) {
          if (!cell.outcome.ok && out.error.empty()) {
            out.error = cell.cell.spec.name + ": " + cell.outcome.error;
          }
        }
      }
    } else {
      engine::BatchConfig config = job.batch;
      if (threads > 0) config.threads = threads;
      out.batch = engine::BatchRunner(config).Run(job.specs);
      out.signature = engine::AggregateSignature(out.batch);
      out.violations = engine::ViolationCount(out.batch);
    }
  } catch (const std::exception& e) {
    // A Status error or a captured worker throw aborts the whole run: count
    // every unit of it as failed.
    out.failed = job.units;
    out.error = e.what();
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

std::string Digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace decaylib::enginebench
