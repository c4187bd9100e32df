// Fault-tolerance layer tests: per-cell failure isolation and retry in the
// sweep runner, checkpoint/resume bit-exactness, spec hashing, aggregate
// numeric health, and the DL_CHECK backstops that stay aborts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "engine/batch_runner.h"
#include "engine/report.h"
#include "spec_perturbations.h"
#include "sweep/checkpoint.h"
#include "sweep/sweep.h"
#include "sweep/sweep_runner.h"

namespace decaylib::sweep {
namespace {

SweepSpec TinyGrid() {
  SweepSpec spec;
  spec.name = "ft";
  spec.base.name = "ft";
  spec.base.topology = "uniform";
  spec.base.links = 12;
  spec.base.instances = 2;
  spec.base.seed = 4242;
  spec.axes = {{"links", {10, 14}}, {"alpha", {2.5, 3.0}}};
  spec.tasks = {engine::TaskKind::kAlgorithm1, engine::TaskKind::kGreedyBaseline};
  return spec;
}

// A transient fault (first attempt of one cell) is absorbed by the retry:
// the sweep ends fully healthy and its signature equals the clean run's.
TEST(FaultToleranceTest, TransientFaultRetriedToCleanSignature) {
  const SweepSpec spec = TinyGrid();
  SweepConfig clean;
  clean.threads = 2;
  const SweepResult reference = SweepRunner(clean).Run(spec);
  const std::string sig = SweepSignature(reference);

  SweepConfig faulty = clean;
  faulty.fault.fail_cell = 1;
  faulty.fault.fail_attempts = 1;  // first attempt throws, second succeeds
  const SweepResult recovered = SweepRunner(faulty).Run(spec);

  EXPECT_EQ(recovered.cells_failed, 0);
  EXPECT_EQ(recovered.cells_retried, 1);
  ASSERT_EQ(recovered.cells.size(), 4u);
  EXPECT_EQ(recovered.cells[1].outcome.attempts, 2);
  EXPECT_TRUE(recovered.cells[1].outcome.ok);
  // Retried state is invisible: warm arenas from the failed attempt do not
  // perturb a single bit of any aggregate.
  EXPECT_EQ(SweepSignature(recovered), sig);
  EXPECT_EQ(SweepViolationCount(recovered), 0);
}

// A cell that fails every attempt is isolated: the rest of the grid
// completes, the failure is recorded with its diagnostic, and the whole
// outcome -- including the failed cell's signature line -- is deterministic
// under the thread count.
TEST(FaultToleranceTest, PermanentFaultIsolatedAndDeterministic) {
  const SweepSpec spec = TinyGrid();
  SweepConfig serial;
  serial.threads = 1;
  serial.fault.fail_cell = 2;
  serial.fault.fail_attempts = -1;  // every attempt fails
  SweepConfig pooled = serial;
  pooled.threads = 4;

  const SweepResult a = SweepRunner(serial).Run(spec);
  const SweepResult b = SweepRunner(pooled).Run(spec);

  ASSERT_EQ(a.cells.size(), 4u);
  EXPECT_EQ(a.cells_failed, 1);
  EXPECT_FALSE(a.cells[2].outcome.ok);
  EXPECT_EQ(a.cells[2].outcome.attempts, 2);  // default max_attempts
  EXPECT_NE(a.cells[2].outcome.error.find("injected fault"), std::string::npos)
      << a.cells[2].outcome.error;
  // The worker pool pins the failure to the instance that tripped it.
  EXPECT_NE(a.cells[2].outcome.error.find("instance 0"), std::string::npos)
      << a.cells[2].outcome.error;
  for (int i : {0, 1, 3}) {
    EXPECT_TRUE(a.cells[static_cast<std::size_t>(i)].outcome.ok) << i;
  }
  const std::string sig = SweepSignature(a);
  EXPECT_EQ(sig, SweepSignature(b));
  EXPECT_NE(sig.find("cell 2 failed"), std::string::npos);
  // Healthy cells are bit-identical to the clean run's cells.
  SweepConfig clean;
  clean.threads = 2;
  const SweepResult reference = SweepRunner(clean).Run(spec);
  for (int i : {0, 1, 3}) {
    const auto one = [](const SweepCellResult& cell) {
      return engine::AggregateSignature(std::span(&cell.result, 1));
    };
    EXPECT_EQ(one(a.cells[static_cast<std::size_t>(i)]),
              one(reference.cells[static_cast<std::size_t>(i)]))
        << i;
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// One work queue for the whole grid: with a first cell far larger than the
// rest, four workers finish and retry cells out of grid order, yet the
// outcome -- signature, failure and retry counts, the sidecar's bytes --
// equals the serial run's, for a transient fault on one cell and for a
// permanent fault on another.
TEST(FaultToleranceTest, SkewedGridWithFaultsMatchesSerialRun) {
  SweepSpec spec = TinyGrid();
  spec.axes = {{"links", {160, 10, 12, 14, 16, 18}}};
  const std::string path = "FT_TEST_skewed_checkpoint.json";
  struct Outcome {
    SweepResult result;
    std::string sidecar;
  };
  const auto run = [&](int threads, int fail_cell, int fail_attempts) {
    std::remove(path.c_str());
    SweepConfig config;
    config.threads = threads;
    config.checkpoint_path = path;
    config.fault.fail_cell = fail_cell;
    config.fault.fail_attempts = fail_attempts;
    Outcome outcome{SweepRunner(config).Run(spec), ""};
    outcome.sidecar = ReadFile(path);
    return outcome;
  };

  // Cell 2 fails its first attempt only; cell 4 fails every attempt.
  for (const auto& [fail_cell, fail_attempts] : {std::pair{2, 1}, std::pair{4, -1}}) {
    const Outcome serial = run(1, fail_cell, fail_attempts);
    const Outcome pooled = run(4, fail_cell, fail_attempts);
    const bool permanent = fail_attempts < 0;
    ASSERT_EQ(serial.result.cells.size(), 6u) << fail_cell;
    EXPECT_EQ(serial.result.cells_failed, permanent ? 1 : 0) << fail_cell;
    EXPECT_EQ(serial.result.cells_retried, 1) << fail_cell;
    EXPECT_EQ(serial.result.cells[static_cast<std::size_t>(fail_cell)]
                  .outcome.ok,
              !permanent);
    EXPECT_EQ(SweepSignature(pooled.result), SweepSignature(serial.result))
        << fail_cell;
    EXPECT_EQ(pooled.result.cells_failed, serial.result.cells_failed);
    EXPECT_EQ(pooled.result.cells_retried, serial.result.cells_retried);
    // Every healthy cell is in the sidecar, in grid order, either way.
    EXPECT_EQ(pooled.sidecar, serial.sidecar) << fail_cell;
    const core::StatusOr<SweepCheckpoint> doc = LoadCheckpoint(path);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    std::vector<int> indices;
    for (const CheckpointCell& cell : doc->cells) indices.push_back(cell.index);
    const std::vector<int> healthy =
        permanent ? std::vector<int>{0, 1, 2, 3, 5}
                  : std::vector<int>{0, 1, 2, 3, 4, 5};
    EXPECT_EQ(indices, healthy);
  }
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

// Whole-sweep input problems do not get per-cell treatment: an invalid
// spec is rejected up front as StatusError, before any kernel is built.
TEST(FaultToleranceTest, InvalidSweepSpecThrowsBeforeExecution) {
  SweepSpec bad = TinyGrid();
  bad.base.beta = 0.25;
  try {
    SweepRunner(SweepConfig{}).Run(bad);
    FAIL() << "expected StatusError";
  } catch (const core::StatusError& e) {
    EXPECT_EQ(e.status().code(), core::StatusCode::kInvalidArgument);
    EXPECT_NE(e.status().message().find("beta"), std::string::npos)
        << e.status().message();
  }
}

// The sidecar document round-trips bit-exactly through its JSON text --
// including the +/-inf min/max sentinels of a count-0 summary, which is
// why sum/min/max travel as %.17g strings.
TEST(CheckpointTest, JsonRoundTripIsBitExact) {
  SweepCheckpoint doc;
  doc.sweep = "round \"trip\"";
  doc.spec_hash = "00c0ffee00c0ffee";
  doc.grid = 8;
  CheckpointCell cell;
  cell.index = 3;
  cell.attempts = 2;
  cell.instances = 5;
  engine::MetricSummary populated;
  populated.Add(0.1);
  populated.Add(1.0 / 3.0);
  populated.Add(-2.5e-300);
  engine::MetricSummary empty;  // count 0, min=+inf, max=-inf
  cell.aggregate = {{"alg1_size", populated}, {"never_recorded", empty}};
  doc.cells.push_back(cell);

  const std::string text = CheckpointToJson(doc);
  const core::StatusOr<SweepCheckpoint> back = CheckpointFromJson(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->sweep, doc.sweep);
  EXPECT_EQ(back->spec_hash, doc.spec_hash);
  EXPECT_EQ(back->grid, doc.grid);
  ASSERT_EQ(back->cells.size(), 1u);
  const CheckpointCell& rc = back->cells[0];
  EXPECT_EQ(rc.index, 3);
  EXPECT_EQ(rc.attempts, 2);
  EXPECT_EQ(rc.instances, 5);
  ASSERT_EQ(rc.aggregate.size(), 2u);
  EXPECT_EQ(rc.aggregate[0].first, "alg1_size");
  EXPECT_EQ(rc.aggregate[0].second, populated);  // bitwise, via ==
  EXPECT_EQ(rc.aggregate[1].second, empty);
  EXPECT_TRUE(std::isinf(rc.aggregate[1].second.min));

  // And the file layer: save, exists, load, identical again.
  const std::string path = "FT_TEST_checkpoint.json";
  EXPECT_FALSE(FileExists(path));
  ASSERT_TRUE(SaveCheckpoint(path, doc).ok());
  EXPECT_TRUE(FileExists(path));
  const core::StatusOr<SweepCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(CheckpointToJson(*loaded), text);
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

// A one-cell sidecar, with `value` as the JSON text of the integer field
// `key` (grid, index, attempts, instances or count) when one is named.
std::string SidecarWith(const std::string& key, const std::string& value) {
  const auto field = [&](const std::string& name, const char* fallback) {
    return "\"" + name + "\":" + (name == key ? value : fallback);
  };
  return R"({"sweep":"x","spec_hash":"h",)" + field("grid", "4") +
         R"(,"cells":[{)" + field("index", "0") + "," + field("attempts", "1") +
         "," + field("instances", "2") +
         R"(,"aggregate":[{"name":"m","sum":"1","min":"1","max":"1",)" +
         field("count", "1") + "}]}]}";
}

TEST(CheckpointTest, MalformedSidecarIsIoErrorNotAbort) {
  const char* torn[] = {
      "",                                   // zero-byte file
      R"({"sweep":"x")",                    // truncated by the crash
      R"({"sweep":"x","cells":{}})",        // wrong kind for cells
      R"([1,2,3])",                         // not an object at all
  };
  for (const char* text : torn) {
    const core::StatusOr<SweepCheckpoint> doc = CheckpointFromJson(text);
    EXPECT_FALSE(doc.ok()) << text;
    EXPECT_EQ(doc.status().code(), core::StatusCode::kIoError) << text;
  }
  // Integer fields that are fractional, negative or out of range: a cast of
  // them would be undefined, or would size a result from garbage.
  ASSERT_TRUE(CheckpointFromJson(SidecarWith("", "")).ok());
  const std::pair<const char*, const char*> bad_integers[] = {
      {"grid", "-1"},      {"grid", "1.5"},      {"index", "1e300"},
      {"index", "0.5"},    {"index", "-1"},      {"attempts", "0"},
      {"attempts", "2.5"}, {"instances", "-1"},  {"instances", "2.5"},
      {"count", "-1"},     {"count", "0.5"},     {"count", "1e300"},
  };
  for (const auto& [key, value] : bad_integers) {
    const core::StatusOr<SweepCheckpoint> doc =
        CheckpointFromJson(SidecarWith(key, value));
    EXPECT_FALSE(doc.ok()) << key << " " << value;
    EXPECT_EQ(doc.status().code(), core::StatusCode::kIoError)
        << key << " " << value;
  }
  const core::StatusOr<SweepCheckpoint> missing =
      LoadCheckpoint("FT_TEST_no_such_file.json");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), core::StatusCode::kIoError);
}

// sum/min/max are the only doubles a sidecar carries; each must be a
// number or an infinity.  A "nan" (or other text) is a parse error, not a
// value for the restore check to catch.
TEST(CheckpointTest, NonNumericSummaryIsIoError) {
  const std::string good = SidecarWith("", "");
  const std::string quoted_one = R"("sum":"1")";
  ASSERT_NE(good.find(quoted_one), std::string::npos);
  for (const char* bad : {"nan", "-nan", "1x", "", "0x"}) {
    std::string text = good;
    text.replace(text.find(quoted_one), quoted_one.size(),
                 std::string(R"("sum":")") + bad + "\"");
    const core::StatusOr<SweepCheckpoint> doc = CheckpointFromJson(text);
    ASSERT_FALSE(doc.ok()) << bad;
    EXPECT_EQ(doc.status().code(), core::StatusCode::kIoError) << bad;
    EXPECT_EQ(doc.status().message().rfind("checkpoint: ", 0), 0u)
        << doc.status().message();
    EXPECT_NE(doc.status().message().find("'sum'"), std::string::npos)
        << doc.status().message();
  }
  std::string infinite = good;
  infinite.replace(infinite.find(quoted_one), quoted_one.size(),
                   R"("sum":"-inf")");
  const core::StatusOr<SweepCheckpoint> doc = CheckpointFromJson(infinite);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->cells[0].aggregate[0].second.sum,
            -std::numeric_limits<double>::infinity());
}

// The spec hash pins a checkpoint to its sweep: a change to any row of the
// base spec's field table, the name, the axes or the task list must change
// the digest.
TEST(CheckpointTest, SpecHashCoversEveryIdentityField) {
  const SweepSpec spec = TinyGrid();
  const std::string hash = SweepSpecHash(spec);
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash, SweepSpecHash(spec));  // stable

  const std::map<std::string, engine::SpecPerturbation>& perturbations =
      engine::SpecPerturbations();
  for (const engine::ScenarioField& field : engine::ScenarioFields()) {
    const auto it = perturbations.find(field.name);
    ASSERT_NE(it, perturbations.end()) << "no perturbation for row "
                                       << field.name;
    SweepSpec other = spec;
    it->second(other.base);
    EXPECT_NE(SweepSpecHash(other), hash) << field.name;
  }

  SweepSpec name = spec;
  name.name += "_renamed";
  SweepSpec axis_value = spec;
  axis_value.axes[1].values[0] = 2.75;
  SweepSpec axis_field = spec;
  axis_field.axes[1].field = "beta";
  SweepSpec tasks = spec;
  tasks.tasks.push_back(engine::TaskKind::kSchedule);
  for (const SweepSpec& other : {name, axis_value, axis_field, tasks}) {
    EXPECT_NE(SweepSpecHash(other), hash) << other.name;
  }
}

// The digests below were computed by the hand-listed hash the field table
// replaced: the table hashes the same fields, in the same order, with the
// same encoding, so sidecars saved before it still resume.  A digest that
// moves here orphans every saved checkpoint.
TEST(CheckpointTest, SpecHashIsPinned) {
  const std::map<std::string, std::string> builtin = {
      {"capacity_vs_alpha", "9391aa68c5a0fa82"},
      {"power_control_gap", "633e039e75d01559"},
      {"noise_frontier", "b9e70a1fc55cbffb"},
      {"stability_region", "a8f17f9865061e3c"},
  };
  const std::vector<SweepSpec> sweeps = BuiltinSweeps();
  ASSERT_EQ(sweeps.size(), builtin.size());
  for (const SweepSpec& sweep : sweeps) {
    EXPECT_EQ(SweepSpecHash(sweep), builtin.at(sweep.name)) << sweep.name;
  }
  EXPECT_EQ(SweepSpecHash(TinyGrid()), "c532b732a140a9da");

  // Every field off its default, the seed past INT64_MAX (hashed as a
  // signed integer) and both enums on a non-zero value.
  SweepSpec every;
  every.name = "every_field";
  engine::ScenarioSpec& b = every.base;
  b.name = "every_field";
  b.topology = "clustered";
  b.links = 40;
  b.instances = 3;
  b.alpha = 3.25;
  b.symmetric_shadowing = false;
  b.beta = 1.5;
  b.noise = 0.02;
  b.zeta = -1.0;
  b.seed = 18446744073709551557ULL;
  b.hotspots = 7;
  b.cluster_sigma = 0.75;
  b.corridor_width = 3.5;
  b.kernel_mode = engine::KernelMode::kFarField;
  b.farfield_epsilon = 0.0;
  b.dynamics.lambda = 0.3;
  b.dynamics.scheduler = dynamics::Scheduler::kRandomAccess;
  b.dynamics.queue_slots = 123;
  b.dynamics.regret_learning_rate = 0.2;
  b.dynamics.regret_penalty = 0.5;
  b.dynamics.regret_rounds = 77;
  every.axes = {{"farfield_epsilon", {0.0, 1e-3}},
                {"lambda", {0.1, 1.0 / 3.0}}};
  every.tasks = {engine::TaskKind::kQueue};
  EXPECT_EQ(SweepSpecHash(every), "3ea5b11c521e9185");
}

// Halt mid-sweep (the simulated kill), then resume at different thread
// counts: the resumed runs restore the completed cells bit-exactly and the
// final signature equals an uninterrupted run's.
TEST(FaultToleranceTest, HaltThenResumeReproducesFreshSignature) {
  const SweepSpec spec = TinyGrid();
  const std::string path = "FT_TEST_resume_checkpoint.json";

  SweepConfig clean;
  clean.threads = 2;
  const std::string sig = SweepSignature(SweepRunner(clean).Run(spec));

  // The halted run stops the work queue after two fresh cells; at threads
  // = 4 they still come first in grid order.
  SweepConfig halted = clean;
  halted.checkpoint_path = path;
  halted.halt_after_cells = 2;
  halted.threads = 4;
  const std::string pooled_half = [&] {
    const SweepResult partial = SweepRunner(halted).Run(spec);
    EXPECT_EQ(partial.cells.size(), 2u);
    return ReadFile(path);
  }();
  halted.threads = clean.threads;
  const SweepResult partial = SweepRunner(halted).Run(spec);
  ASSERT_EQ(partial.cells.size(), 2u);
  EXPECT_EQ(ReadFile(path), pooled_half);

  // Snapshot the half-grid sidecar: each resume below rewrites the file to
  // the full grid, so it is restored between iterations.
  const core::StatusOr<SweepCheckpoint> half = LoadCheckpoint(path);
  ASSERT_TRUE(half.ok()) << half.status().ToString();
  ASSERT_EQ(half->cells.size(), 2u);

  for (const int threads : {2, 1, 4}) {
    ASSERT_TRUE(SaveCheckpoint(path, *half).ok());
    SweepConfig resume;
    resume.threads = threads;
    resume.checkpoint_path = path;
    resume.resume = true;
    const SweepResult resumed = SweepRunner(resume).Run(spec);
    EXPECT_EQ(resumed.cells_resumed, 2) << threads;
    EXPECT_EQ(resumed.cells_failed, 0) << threads;
    ASSERT_EQ(resumed.cells.size(), 4u) << threads;
    EXPECT_TRUE(resumed.cells[0].outcome.resumed) << threads;
    EXPECT_FALSE(resumed.cells[3].outcome.resumed) << threads;
    EXPECT_EQ(SweepSignature(resumed), sig) << threads;
  }

  // A resume of the now-complete sidecar executes nothing new.
  SweepConfig resume_all;
  resume_all.threads = 1;
  resume_all.checkpoint_path = path;
  resume_all.resume = true;
  const SweepResult replay = SweepRunner(resume_all).Run(spec);
  EXPECT_EQ(replay.cells_resumed, 4);
  EXPECT_EQ(SweepSignature(replay), sig);

  EXPECT_EQ(std::remove(path.c_str()), 0);
}

// Resuming someone else's grid is refused: the hashes differ, so Run
// throws kFailedPrecondition instead of splicing wrong results in.
TEST(FaultToleranceTest, ResumeRejectsCheckpointFromDifferentSpec) {
  const SweepSpec spec = TinyGrid();
  const std::string path = "FT_TEST_foreign_checkpoint.json";
  SweepConfig halted;
  halted.threads = 2;
  halted.checkpoint_path = path;
  halted.halt_after_cells = 1;
  (void)SweepRunner(halted).Run(spec);

  SweepSpec other = spec;
  other.base.seed += 99;
  SweepConfig resume = halted;
  resume.halt_after_cells = 0;
  resume.resume = true;
  try {
    SweepRunner(resume).Run(other);
    FAIL() << "expected StatusError";
  } catch (const core::StatusError& e) {
    EXPECT_EQ(e.status().code(), core::StatusCode::kFailedPrecondition);
    EXPECT_NE(e.status().message().find("different sweep spec"),
              std::string::npos)
        << e.status().message();
  }
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

// Only completed cells are saved, so a restored cell holds its spec's
// instance count: a sidecar that says otherwise -- out of range (a parse
// error) or merely different -- is refused before any cell runs.
TEST(FaultToleranceTest, ResumeRejectsMismatchedInstanceCount) {
  const SweepSpec spec = TinyGrid();
  const std::string path = "FT_TEST_count_checkpoint.json";
  SweepConfig halted;
  halted.threads = 1;
  halted.checkpoint_path = path;
  halted.halt_after_cells = 1;
  (void)SweepRunner(halted).Run(spec);
  const core::StatusOr<SweepCheckpoint> saved = LoadCheckpoint(path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved->cells.size(), 1u);
  const int instances = saved->cells[0].instances;
  ASSERT_EQ(instances, spec.base.instances);  // no instances axis

  for (const int bad : {-1, instances + 1}) {
    SweepCheckpoint doc = *saved;
    doc.cells[0].instances = bad;
    ASSERT_TRUE(SaveCheckpoint(path, doc).ok());
    SweepConfig resume = halted;
    resume.halt_after_cells = 0;
    resume.resume = true;
    try {
      (void)SweepRunner(resume).Run(spec);
      ADD_FAILURE() << "expected StatusError for " << bad << " instances";
    } catch (const core::StatusError& e) {
      EXPECT_EQ(e.status().code(), core::StatusCode::kFailedPrecondition)
          << e.status().ToString();
    }
  }
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

// A restored cell's aggregate must be one a fresh run saves: zeta and then
// the engine's metric table, in order, finite wherever populated.  A
// sidecar with the right spec hash but a dropped or renamed metric, or a
// "nan" sum, is refused before any cell runs instead of splicing a
// signature no run produces into the grid.  The "nan" never gets as far as
// the restore check: the sidecar parser refuses it.
TEST(FaultToleranceTest, ResumeRejectsMutatedAggregate) {
  const SweepSpec spec = TinyGrid();
  const std::string path = "FT_TEST_mutated_checkpoint.json";
  SweepConfig halted;
  halted.threads = 1;
  halted.checkpoint_path = path;
  halted.halt_after_cells = 1;
  (void)SweepRunner(halted).Run(spec);
  const core::StatusOr<SweepCheckpoint> saved = LoadCheckpoint(path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved->cells.size(), 1u);
  const auto& aggregate = saved->cells[0].aggregate;
  ASSERT_EQ(aggregate.size(), engine::AggregateMetrics().size() + 1);
  ASSERT_GT(aggregate[1].second.count, 0);  // alg1_size ran

  SweepConfig resume = halted;
  resume.halt_after_cells = 0;
  resume.resume = true;
  // The unmutated sidecar resumes.
  EXPECT_EQ(SweepRunner(resume).Run(spec).cells_resumed, 1);

  SweepCheckpoint dropped = *saved;
  dropped.cells[0].aggregate.pop_back();
  SweepCheckpoint renamed = *saved;
  renamed.cells[0].aggregate[1].first = "alg1_size_renamed";
  SweepCheckpoint poisoned = *saved;
  poisoned.cells[0].aggregate[1].second.sum =
      std::numeric_limits<double>::quiet_NaN();
  const std::pair<const char*, const SweepCheckpoint*> mutations[] = {
      {"dropped", &dropped}, {"renamed", &renamed}, {"nan", &poisoned}};
  for (const auto& [what, doc] : mutations) {
    ASSERT_TRUE(SaveCheckpoint(path, *doc).ok());
    // The sidecar really carries the text "nan", which does not load.
    const bool nan_sum = doc == &poisoned;
    if (nan_sum) {
      const core::StatusOr<SweepCheckpoint> back = LoadCheckpoint(path);
      ASSERT_FALSE(back.ok());
      EXPECT_EQ(back.status().code(), core::StatusCode::kIoError);
      EXPECT_NE(back.status().message().find("'sum'"), std::string::npos)
          << back.status().message();
    }
    try {
      (void)SweepRunner(resume).Run(spec);
      ADD_FAILURE() << "expected StatusError for the " << what << " sidecar";
    } catch (const core::StatusError& e) {
      EXPECT_EQ(e.status().code(), core::StatusCode::kFailedPrecondition)
          << what << ": " << e.status().ToString();
      EXPECT_NE(e.status().message().find(nan_sum ? "'sum'"
                                                  : "checkpoint cell 0"),
                std::string::npos)
          << what << ": " << e.status().message();
    }
  }
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

// A count-0 summary is restored only as the empty summary a fresh run
// saves (sum 0, min +inf, max -inf).  AggregateHealth skips count-0
// entries, so without this check a sidecar entry with count 0 but a
// finite min would resume into a signature the fresh run never produced.
TEST(FaultToleranceTest, ResumeRejectsNonEmptyCountZeroSummary) {
  const SweepSpec spec = TinyGrid();
  const std::string path = "FT_TEST_count0_checkpoint.json";
  SweepConfig halted;
  halted.threads = 1;
  halted.checkpoint_path = path;
  halted.halt_after_cells = 1;
  (void)SweepRunner(halted).Run(spec);
  const core::StatusOr<SweepCheckpoint> saved = LoadCheckpoint(path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved->cells.size(), 1u);
  const auto& aggregate = saved->cells[0].aggregate;
  const auto empty = std::find_if(
      aggregate.begin(), aggregate.end(),
      [](const auto& entry) { return entry.second.count == 0; });
  ASSERT_NE(empty, aggregate.end()) << "TinyGrid leaves no metric empty";
  const std::size_t k = static_cast<std::size_t>(empty - aggregate.begin());
  ASSERT_EQ(empty->second, engine::MetricSummary{});

  SweepConfig resume = halted;
  resume.halt_after_cells = 0;
  resume.resume = true;
  // A finite min, and a sum of -0: == takes it for 0, the signature
  // prints "sum=-0".
  engine::MetricSummary finite_min;
  finite_min.min = 7.0;
  engine::MetricSummary zero_min;
  zero_min.min = 0.0;
  engine::MetricSummary negative_zero_sum;
  negative_zero_sum.sum = -0.0;
  for (const engine::MetricSummary& bad :
       {finite_min, zero_min, negative_zero_sum}) {
    SweepCheckpoint doc = *saved;
    doc.cells[0].aggregate[k].second = bad;
    ASSERT_TRUE(SaveCheckpoint(path, doc).ok());
    try {
      (void)SweepRunner(resume).Run(spec);
      ADD_FAILURE() << "expected StatusError for sum " << bad.sum << " min "
                    << bad.min;
    } catch (const core::StatusError& e) {
      EXPECT_EQ(e.status().code(), core::StatusCode::kFailedPrecondition)
          << e.status().ToString();
      EXPECT_NE(e.status().message().find("checkpoint cell 0"),
                std::string::npos)
          << e.status().message();
      EXPECT_NE(e.status().message().find(empty->first), std::string::npos)
          << e.status().message();
    }
  }
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

// AggregateHealth: populated summaries must be finite; the +/-inf
// sentinels of a never-recorded metric are not an error.
TEST(FaultToleranceTest, AggregateHealthFlagsNonFinitePopulatedMetrics) {
  engine::ScenarioResult result;
  engine::MetricSummary good;
  good.Add(1.0);
  good.Add(2.5);
  engine::MetricSummary empty;  // count 0: inf sentinels allowed
  result.aggregate = {{"alg1_size", good}, {"never_recorded", empty}};
  EXPECT_TRUE(engine::AggregateHealth(result).ok());

  engine::MetricSummary poisoned = good;
  poisoned.sum = std::numeric_limits<double>::quiet_NaN();
  result.aggregate.emplace_back("queue_throughput", poisoned);
  const core::Status status = engine::AggregateHealth(result);
  EXPECT_EQ(status.code(), core::StatusCode::kNumericError);
  EXPECT_NE(status.message().find("queue_throughput"), std::string::npos)
      << status.message();
}

// Contract violations stay aborts: the recoverable layer must not soften
// programmer errors into per-cell failures.
TEST(FaultToleranceDeathTest, ProgrammerErrorsStillAbort) {
  // ExpandGrid requires a validated spec; an unknown axis field is API
  // misuse at that layer (ValidateSweepSpec is the input gate).
  SweepSpec bogus = TinyGrid();
  bogus.axes.push_back({"no_such_field", {1.0}});
  EXPECT_DEATH((void)ExpandGrid(bogus), "unknown sweep axis");

  // An arena span shorter than the worker pool is a wiring bug.
  std::vector<sinr::KernelArena> arenas(1);
  engine::BatchConfig config;
  config.threads = 2;
  config.arenas = std::span<sinr::KernelArena>(arenas);
  const engine::BatchRunner runner(config);
  engine::ScenarioSpec spec;
  spec.topology = "uniform";
  spec.links = 6;
  spec.instances = 2;
  EXPECT_DEATH((void)runner.RunOne(spec), "arena span");
}

}  // namespace
}  // namespace decaylib::sweep
