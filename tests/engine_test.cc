#include "engine/batch_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/decay_space.h"
#include "core/status.h"
#include "engine/report.h"
#include "engine/scenario.h"
#include "obs/bench_harness.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "spec_perturbations.h"

namespace decaylib::engine {
namespace {

// Shrinks a spec to test size.
ScenarioSpec Small(ScenarioSpec spec, int links = 12, int instances = 3) {
  spec.links = links;
  spec.instances = instances;
  return spec;
}

// Entry-for-entry bitwise equality of two decay spaces, whichever
// representation each one has.
::testing::AssertionResult SameEntries(const core::DecaySpace& a,
                                       const core::DecaySpace& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  }
  for (int p = 0; p < a.size(); ++p) {
    for (int q = 0; q < a.size(); ++q) {
      if (a(p, q) != b(p, q)) {
        return ::testing::AssertionFailure()
               << "entry (" << p << ", " << q << "): " << a(p, q) << " vs "
               << b(p, q);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ScenarioRegistryTest, TopologiesRegistered) {
  const std::vector<std::string> names = RegisteredTopologies();
  EXPECT_GE(names.size(), 4u);
  for (const std::string& name : names) {
    EXPECT_TRUE(IsRegisteredTopology(name)) << name;
  }
  EXPECT_FALSE(IsRegisteredTopology("no_such_topology"));
}

TEST(ScenarioRegistryTest, BuiltinsAreWellFormed) {
  const std::vector<ScenarioSpec> specs = BuiltinScenarios();
  EXPECT_GE(specs.size(), 4u);
  std::set<std::string> seen;
  for (const ScenarioSpec& spec : specs) {
    EXPECT_TRUE(IsRegisteredTopology(spec.topology)) << spec.name;
    EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate " << spec.name;
    EXPECT_TRUE(FindBuiltinScenario(spec.name).has_value());
  }
  EXPECT_FALSE(FindBuiltinScenario("no_such_scenario").has_value());
}

TEST(ScenarioInstanceTest, BuildIsDeterministic) {
  const ScenarioSpec spec = Small(BuiltinScenarios().at(1), 10, 2);
  const ScenarioInstance a = BuildInstance(spec, 1);
  const ScenarioInstance b = BuildInstance(spec, 1);
  EXPECT_TRUE(SameEntries(a.space(), b.space()));
  EXPECT_EQ(a.system().links(), b.system().links());
  EXPECT_EQ(a.power(), b.power());
  EXPECT_EQ(a.zeta(), b.zeta());
}

TEST(ScenarioInstanceTest, DistinctIndicesGiveDistinctInstances) {
  const ScenarioSpec spec = Small(BuiltinScenarios().front(), 10, 2);
  const ScenarioInstance a = BuildInstance(spec, 0);
  const ScenarioInstance b = BuildInstance(spec, 1);
  EXPECT_FALSE(SameEntries(a.space(), b.space()));
}

TEST(ScenarioInstanceTest, PairingCoversEveryNodeExactlyOnce) {
  const ScenarioSpec spec = Small(BuiltinScenarios().front(), 16, 1);
  const ScenarioInstance instance = BuildInstance(spec, 0);
  ASSERT_EQ(instance.NumLinks(), 16);
  std::set<int> endpoints;
  for (const sinr::Link& link : instance.system().links()) {
    EXPECT_TRUE(endpoints.insert(link.sender).second);
    EXPECT_TRUE(endpoints.insert(link.receiver).second);
    // Orientation: the link's own decay is the weaker of the two directions.
    EXPECT_LE(instance.space()(link.sender, link.receiver),
              instance.space()(link.receiver, link.sender));
  }
  EXPECT_EQ(endpoints.size(), 32u);
  EXPECT_EQ(*endpoints.begin(), 0);
  EXPECT_EQ(*endpoints.rbegin(), 31);
}

// Property: grid/MNN pairing is the sort-greedy matching, across every
// registered topology, several deployment sizes and many seeds.  Only
// shadowing-free specs route through the grid (sigma_db > 0 falls back to
// the sort), but the equality must hold wherever the dispatch can go.
TEST(ScenarioPairingTest, GridPairingEqualsSortGreedyAcrossTopologies) {
  for (const std::string& topology : RegisteredTopologies()) {
    for (const int links : {4, 9, 24}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        ScenarioSpec spec;
        spec.name = "pairing_property";
        spec.topology = topology;
        spec.links = links;
        spec.sigma_db = 0.0;
        spec.seed = seed;
        const ScenarioGeometry sorted =
            BuildGeometry(spec, 0, PairingMode::kSortGreedy);
        const ScenarioGeometry gridded =
            BuildGeometry(spec, 0, PairingMode::kAuto);
        ASSERT_EQ(sorted.points.size(), 2u * static_cast<std::size_t>(links))
            << topology;
        EXPECT_EQ(sorted.links, gridded.links)
            << topology << " links=" << links << " seed=" << seed;
        // The standalone pairing functions agree too (same space/points).
        EXPECT_EQ(PairLinksByDecayGrid(*sorted.space, sorted.points,
                                       spec.alpha),
                  PairLinksByDecay(*sorted.space))
            << topology << " links=" << links << " seed=" << seed;
      }
    }
  }
}

// Shadowed specs cannot use the distance grid (decay is no longer monotone
// in distance); the auto dispatch must fall back and stay identical.
TEST(ScenarioPairingTest, ShadowedSpecsFallBackToSortGreedy) {
  ScenarioSpec spec;
  spec.name = "pairing_shadowed";
  spec.topology = "uniform";
  spec.links = 16;
  spec.sigma_db = 6.0;
  spec.seed = 42;
  const ScenarioGeometry a = BuildGeometry(spec, 0, PairingMode::kAuto);
  const ScenarioGeometry b = BuildGeometry(spec, 0, PairingMode::kSortGreedy);
  EXPECT_EQ(a.links, b.links);
}

// Shadow-free geometry is coordinate-backed, and its entries are exactly the
// dense Geometric space's over the same points -- as are its materialised
// copy and the matrix a Set densifies it into -- for every topology.
TEST(ScenarioGeometryTest, ShadowFreeSpacesAreCoordinateBackedAndExact) {
  for (const std::string& topology : RegisteredTopologies()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ScenarioSpec spec;
      spec.name = "coordinate_backed";
      spec.topology = topology;
      spec.links = 20;
      spec.alpha = 2.5 + 0.5 * static_cast<double>(seed);
      spec.seed = seed;
      const ScenarioGeometry geometry = BuildGeometry(spec, 1);
      ASSERT_TRUE(geometry.space->IsCoordinateBacked()) << topology;
      const core::DecaySpace dense =
          core::DecaySpace::Geometric(geometry.points, spec.alpha);
      EXPECT_TRUE(SameEntries(*geometry.space, dense)) << topology;
      EXPECT_TRUE(SameEntries(geometry.space->Materialized(), dense))
          << topology;
      core::DecaySpace densified = *geometry.space;
      densified.SetSymmetric(0, 1, dense(0, 1));
      EXPECT_FALSE(densified.IsCoordinateBacked());
      EXPECT_TRUE(SameEntries(densified, dense)) << topology;
    }
  }
  // Shadowing makes the matrix arbitrary: that route stays dense.
  ScenarioSpec shadowed = Small(BuiltinScenarios().front(), 10, 1);
  shadowed.sigma_db = 6.0;
  EXPECT_FALSE(BuildGeometry(shadowed, 0).space->IsCoordinateBacked());
}

// The engine's shadow-free geometry holds O(n) memory: the dense matrix of
// a 16384-link instance would be (2n)^2 * 8 B = 8 GiB.
TEST(ScenarioGeometryTest, ShadowFreeSpaceMemoryIsLinear) {
  ScenarioSpec spec = *FindBuiltinScenario("uniform_dense");
  spec.links = 16384;
  const ScenarioGeometry geometry = BuildGeometry(spec, 0);
  EXPECT_EQ(geometry.space->size(), 2 * spec.links);
  EXPECT_EQ(geometry.links.size(), static_cast<std::size_t>(spec.links));
  EXPECT_LT(geometry.space->MemoryBytes(), 2LL * 1024 * 1024);
}

// The geometry key is declared by the field table: perturbing a kGeometry
// row moves the key, and perturbing any other row leaves both the key and
// the sampled geometry -- points, links and every space entry --
// bit-identical, over every builtin (the soundness half of the
// declaration).
TEST(GeometryKeyTest, NonGeometricFieldsShareAKey) {
  const std::map<std::string, SpecPerturbation>& perturbations =
      SpecPerturbations();
  EXPECT_EQ(perturbations.size(), ScenarioFields().size());
  for (const ScenarioSpec& builtin : BuiltinScenarios()) {
    const ScenarioSpec spec = Small(builtin, 10, 2);
    const ScenarioGeometry base = BuildGeometry(spec, 1);
    for (const ScenarioField& field : ScenarioFields()) {
      const auto it = perturbations.find(field.name);
      ASSERT_NE(it, perturbations.end()) << "no perturbation for row "
                                         << field.name;
      ScenarioSpec changed = spec;
      it->second(changed);
      const std::string where = spec.name + " / " + field.name;
      if (field.Has(kGeometry)) {
        EXPECT_FALSE(GeometryKeyOf(changed) == GeometryKeyOf(spec)) << where;
        continue;
      }
      EXPECT_EQ(GeometryKeyOf(changed), GeometryKeyOf(spec)) << where;
      const ScenarioGeometry geometry = BuildGeometry(changed, 1);
      EXPECT_EQ(geometry.points, base.points) << where;
      EXPECT_EQ(geometry.links, base.links) << where;
      EXPECT_TRUE(SameEntries(*geometry.space, *base.space)) << where;
    }
  }
}

// BuildGeometry samples 2 * links points in an int, so the links row stops
// at INT_MAX / 2; validation alone decides (no geometry at that size).
TEST(ScenarioValidationTest, LinksStopAtHalfIntMax) {
  ScenarioSpec spec;
  spec.links = std::numeric_limits<int>::max() / 2 + 1;
  const core::Status status = ValidateScenarioSpec(spec);
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "links must be in [1, 1073741823]");
  spec.links = std::numeric_limits<int>::max() / 2;
  EXPECT_TRUE(ValidateScenarioSpec(spec).ok());
}

// A cached geometry configures to the bit-identical instance BuildInstance
// produces, reuse only kicks in on key-equal specs, and the measured
// metricity is memoised in the slot.
TEST(GeometryCacheTest, ReuseIsBitIdenticalAndKeyed) {
  ScenarioSpec spec = Small(BuiltinScenarios().front(), 10, 3);
  GeometryCache cache;
  cache.Prepare(spec);
  for (int i = 0; i < spec.instances; ++i) {
    const ScenarioInstance direct = BuildInstance(spec, i);
    const ScenarioInstance cached =
        ConfigureInstance(spec, cache.Acquire(spec, i));
    ASSERT_TRUE(SameEntries(cached.space(), direct.space()));
    EXPECT_EQ(cached.system().links(), direct.system().links());
    EXPECT_EQ(cached.power(), direct.power());
    EXPECT_EQ(cached.zeta(), direct.zeta());
  }
  EXPECT_EQ(cache.builds(), 3);
  EXPECT_EQ(cache.reuses(), 0);

  // Non-geometric change: same key, slots stay warm.
  ScenarioSpec power = spec;
  power.power_tau = 0.5;
  power.beta = 1.5;
  cache.Prepare(power);
  for (int i = 0; i < power.instances; ++i) {
    const ScenarioInstance direct = BuildInstance(power, i);
    const ScenarioInstance cached =
        ConfigureInstance(power, cache.Acquire(power, i));
    EXPECT_EQ(cached.power(), direct.power());
    EXPECT_EQ(cached.zeta(), direct.zeta());
    EXPECT_EQ(cached.system().links(), direct.system().links());
  }
  EXPECT_EQ(cache.builds(), 3);
  EXPECT_EQ(cache.reuses(), 3);

  // Geometric change: key differs, every slot rebuilds.
  ScenarioSpec rekeyed = spec;
  rekeyed.alpha += 0.5;
  cache.Prepare(rekeyed);
  (void)cache.Acquire(rekeyed, 0);
  EXPECT_EQ(cache.builds(), 4);
  EXPECT_EQ(cache.reuses(), 3);
}

TEST(GeometryCacheTest, MeasuredZetaIsMemoised) {
  ScenarioSpec spec = Small(BuiltinScenarios().front(), 6, 1);
  spec.zeta = -1.0;
  GeometryCache cache;
  cache.Prepare(spec);
  const ScenarioGeometry& geometry = cache.Acquire(spec, 0);
  EXPECT_TRUE(geometry.zeta_measured);
  const ScenarioInstance direct = BuildInstance(spec, 0);
  const ScenarioInstance cached = ConfigureInstance(spec, geometry);
  EXPECT_EQ(cached.zeta(), direct.zeta());
  // An explicit-zeta cell reusing the slot keeps the measurement around.
  ScenarioSpec explicit_zeta = spec;
  explicit_zeta.zeta = 4.0;
  cache.Prepare(explicit_zeta);
  EXPECT_TRUE(cache.Acquire(explicit_zeta, 0).zeta_measured);
  EXPECT_EQ(cache.reuses(), 1);
}

TEST(GeometryCacheTest, LruGenerationsHitAndEvictDeterministically) {
  // Two interleaved keys K1 K2 K1 K2 -- the access pattern of a sweep
  // whose geometric axis is not the slowest.  A single generation
  // thrashes: every Prepare after the first replaces the cached key.  Two
  // generations serve the whole second pass warm.
  ScenarioSpec k1 = Small(BuiltinScenarios().front(), 8, 2);
  ScenarioSpec k2 = k1;
  k2.alpha += 0.5;  // geometric change: distinct GeometryKey

  const std::vector<const ScenarioSpec*> order = {&k1, &k2, &k1, &k2};
  auto drive = [&](GeometryCache& cache) {
    for (const ScenarioSpec* s : order) {
      cache.Prepare(*s);
      for (int i = 0; i < s->instances; ++i) (void)cache.Acquire(*s, i);
    }
  };

  GeometryCache shallow;  // default capacity 1
  drive(shallow);
  EXPECT_EQ(shallow.builds(), 8);
  EXPECT_EQ(shallow.reuses(), 0);
  EXPECT_EQ(shallow.generation_hits(), 0);
  EXPECT_EQ(shallow.evictions(), 3);

  GeometryCache deep;
  deep.SetGenerations(2);
  drive(deep);
  EXPECT_EQ(deep.builds(), 4);
  EXPECT_EQ(deep.reuses(), 4);
  EXPECT_EQ(deep.generation_hits(), 2);
  EXPECT_EQ(deep.evictions(), 0);

  // A warm generation hit serves the bit-identical geometry a cold build
  // would have produced.
  deep.Prepare(k1);
  const ScenarioInstance direct = BuildInstance(k1, 1);
  const ScenarioInstance warm = ConfigureInstance(k1, deep.Acquire(k1, 1));
  ASSERT_TRUE(SameEntries(warm.space(), direct.space()));
  EXPECT_EQ(warm.system().links(), direct.system().links());

  // Shrinking evicts the excess least recently used generation (k2; k1 was
  // just spliced to the front) without touching the survivor's slots.
  deep.SetGenerations(1);
  EXPECT_EQ(deep.evictions(), 1);
  const long long builds_before = deep.builds();
  deep.Prepare(k1);
  (void)deep.Acquire(k1, 0);
  EXPECT_EQ(deep.builds(), builds_before);  // front generation stayed warm
}

TEST(GeometryCacheTest, WarmSlotReferencesSurviveSplices) {
  // Generations are list nodes and slots live in deques: a reference
  // Acquire handed out stays valid while its generation stays cached, even
  // as other keys rotate through the LRU and the list is respliced.
  ScenarioSpec k1 = Small(BuiltinScenarios().front(), 8, 2);
  ScenarioSpec k2 = k1;
  k2.alpha += 0.5;

  GeometryCache cache;
  cache.SetGenerations(2);
  cache.Prepare(k1);
  const ScenarioGeometry& pinned = cache.Acquire(k1, 0);
  const core::DecaySpace before = *pinned.space;

  cache.Prepare(k2);
  (void)cache.Acquire(k2, 0);
  cache.Prepare(k1);  // splices k1 back to the front
  (void)cache.Acquire(k1, 1);

  EXPECT_TRUE(SameEntries(*pinned.space, before));
}

// The engine's core contract: the deterministic aggregate report of a batch
// does not depend on the worker-pool size.
// Every spec is validated before any unit runs: an invalid last spec
// throws before the valid specs ahead of it touch the geometry cache.
TEST(BatchRunnerTest, InvalidLastSpecThrowsBeforeAnyWorkerStarts) {
  std::vector<ScenarioSpec> specs;
  for (const ScenarioSpec& spec : BuiltinScenarios()) {
    specs.push_back(Small(spec, 12, 2));
  }
  specs.back().beta = 0.25;
  GeometryCache geometry;
  for (const int threads : {1, 4}) {
    BatchConfig config;
    config.threads = threads;
    config.geometry = &geometry;
    try {
      (void)BatchRunner(config).Run(specs);
      FAIL() << "expected StatusError at threads=" << threads;
    } catch (const core::StatusError& e) {
      EXPECT_EQ(e.status().code(), core::StatusCode::kInvalidArgument)
          << threads;
    }
    EXPECT_EQ(geometry.builds(), 0) << threads;
    EXPECT_EQ(geometry.reuses(), 0) << threads;
  }
}

TEST(BatchRunnerTest, AggregateBitIdenticalAcrossThreadCounts) {
  std::vector<ScenarioSpec> specs;
  for (const ScenarioSpec& spec : BuiltinScenarios()) {
    specs.push_back(Small(spec, 12, 4));
  }
  // Measured zeta at 80 nodes: four ComputeMetricity scans run on the pool
  // side by side under threads = 4.
  specs.push_back(Small(*FindBuiltinScenario("shadowed_asymmetric"), 40, 4));

  BatchConfig serial;
  serial.threads = 1;
  BatchConfig pooled;
  pooled.threads = 4;

  const auto a = BatchRunner(serial).Run(specs);
  const auto b = BatchRunner(pooled).Run(specs);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].aggregate, b[s].aggregate) << specs[s].name;
  }
  EXPECT_EQ(AggregateSignature(a), AggregateSignature(b));
}

// Registry round trip: every builtin scenario builds, runs every task, and
// produces finite, in-range statistics at small n.
TEST(BatchRunnerTest, RegistryRoundTripFiniteStats) {
  BatchConfig config;
  config.threads = 2;
  const BatchRunner runner(config);
  for (const ScenarioSpec& builtin : BuiltinScenarios()) {
    const ScenarioSpec spec = Small(builtin, 10, 2);
    const ScenarioResult result = runner.RunOne(spec);
    ASSERT_EQ(result.instances.size(), 2u) << spec.name;
    for (const InstanceRecord& rec : result.instances) {
      EXPECT_EQ(rec.links, 10) << spec.name;
      EXPECT_TRUE(std::isfinite(rec.zeta)) << spec.name;
      EXPECT_GT(rec.zeta, 0.0) << spec.name;
      EXPECT_GE(rec.alg1_size, 1) << spec.name;
      EXPECT_LE(rec.alg1_size, rec.links) << spec.name;
      EXPECT_LE(rec.alg1_size, rec.alg1_admitted) << spec.name;
      EXPECT_TRUE(rec.alg1_feasible) << spec.name;
      EXPECT_GE(rec.greedy_size, 1) << spec.name;
      EXPECT_LE(rec.greedy_size, rec.links) << spec.name;
      EXPECT_TRUE(std::isfinite(rec.weighted_value)) << spec.name;
      EXPECT_GT(rec.weighted_value, 0.0) << spec.name;
      EXPECT_GE(rec.weighted_size, 1) << spec.name;
      EXPECT_GE(rec.partition_classes, 1) << spec.name;
      EXPECT_LE(rec.partition_classes, rec.alg1_size) << spec.name;
      EXPECT_GE(rec.schedule_slots, 1) << spec.name;
      EXPECT_LE(rec.schedule_slots, rec.links) << spec.name;
      EXPECT_TRUE(rec.schedule_valid) << spec.name;
    }
    for (const auto& [name, m] : result.aggregate) {
      if (m.count == 0) continue;
      EXPECT_TRUE(std::isfinite(m.sum)) << spec.name << "/" << name;
      EXPECT_TRUE(std::isfinite(m.min)) << spec.name << "/" << name;
      EXPECT_TRUE(std::isfinite(m.max)) << spec.name << "/" << name;
      EXPECT_LE(m.min, m.max) << spec.name << "/" << name;
    }
  }
}

// The power-control task records in-range gap statistics, and the cached
// oracle admits at least every singleton.
TEST(BatchRunnerTest, PowerControlTaskRecordsGapStatistics) {
  BatchConfig config;
  config.threads = 2;
  config.tasks = {TaskKind::kGreedyBaseline, TaskKind::kPowerControl};
  const ScenarioSpec spec = Small(BuiltinScenarios().front(), 10, 3);
  const ScenarioResult result = BatchRunner(config).RunOne(spec);
  for (const InstanceRecord& rec : result.instances) {
    EXPECT_GE(rec.pc_greedy_size, 1);
    EXPECT_LE(rec.pc_greedy_size, rec.links);
    EXPECT_TRUE(rec.pc_all_feasible == 0 || rec.pc_all_feasible == 1);
    EXPECT_TRUE(rec.pc_obstructed == 0 || rec.pc_obstructed == 1);
  }
  bool found_gap = false;
  for (const auto& [name, m] : result.aggregate) {
    if (name == "pc_gain_vs_uniform" && m.count > 0) found_gap = true;
  }
  EXPECT_TRUE(found_gap);
}

// Arena-backed kernel rebuilds must be invisible in the deterministic
// aggregate: a batch run through per-worker arenas matches a batch with
// per-instance allocation bit-for-bit.
TEST(BatchRunnerTest, ArenaReuseBitIdenticalToPerInstanceKernels) {
  std::vector<ScenarioSpec> specs;
  for (const ScenarioSpec& spec : BuiltinScenarios()) {
    specs.push_back(Small(spec, 10, 3));
  }

  BatchConfig plain;
  plain.threads = 2;
  const auto reference = BatchRunner(plain).Run(specs);

  std::vector<sinr::KernelArena> arenas(2);
  BatchConfig with_arenas = plain;
  with_arenas.arenas = std::span(arenas);
  const auto arena_run = BatchRunner(with_arenas).Run(specs);

  EXPECT_EQ(AggregateSignature(reference), AggregateSignature(arena_run));
  long long rebuilds = 0;
  for (const sinr::KernelArena& arena : arenas) rebuilds += arena.rebuilds();
  long long instances = 0;
  for (const ScenarioSpec& spec : specs) instances += spec.instances;
  EXPECT_EQ(rebuilds, instances);
}

// Geometry-cache-backed builds must be invisible in the deterministic
// aggregate, across thread counts, and the cache must actually engage on
// the key-equal run of specs.
TEST(BatchRunnerTest, GeometryCacheBitIdenticalAcrossThreadCounts) {
  std::vector<ScenarioSpec> specs;
  ScenarioSpec base = Small(BuiltinScenarios().front(), 10, 3);
  for (const double beta : {1.0, 1.5, 2.0}) {
    base.beta = beta;
    base.name = "geom_reuse_beta";
    specs.push_back(base);
  }

  BatchConfig plain;
  plain.threads = 2;
  const auto reference = BatchRunner(plain).Run(specs);

  for (const int threads : {1, 4}) {
    GeometryCache cache;
    BatchConfig with_cache;
    with_cache.threads = threads;
    with_cache.geometry = &cache;
    const auto cached_run = BatchRunner(with_cache).Run(specs);
    EXPECT_EQ(AggregateSignature(reference), AggregateSignature(cached_run))
        << "threads=" << threads;
    EXPECT_EQ(cache.builds(), 3);   // first spec samples its 3 instances
    EXPECT_EQ(cache.reuses(), 6);   // the two beta variants reuse them
  }
}

TEST(BatchRunnerTest, TaskSubsetLeavesOtherMetricsUnset) {
  BatchConfig config;
  config.threads = 1;
  config.tasks = {TaskKind::kAlgorithm1};
  const ScenarioSpec spec = Small(BuiltinScenarios().front(), 8, 1);
  const ScenarioResult result = BatchRunner(config).RunOne(spec);
  const InstanceRecord& rec = result.instances.front();
  EXPECT_GE(rec.alg1_size, 0);
  EXPECT_EQ(rec.greedy_size, -1);
  EXPECT_EQ(rec.weighted_size, -1);
  EXPECT_EQ(rec.partition_classes, -1);
  EXPECT_EQ(rec.schedule_slots, -1);
  EXPECT_EQ(rec.pc_greedy_size, -1);
  EXPECT_EQ(rec.queue_throughput, -1.0);
  EXPECT_EQ(rec.queue_unstable, -1);
  EXPECT_EQ(rec.regret_successes, -1.0);
}

// Shrinks the dynamics workloads to test size alongside the usual spec
// shrink (the defaults simulate 400 slots/rounds per instance).
ScenarioSpec SmallDynamics(ScenarioSpec spec, int links = 10,
                           int instances = 3) {
  spec = Small(std::move(spec), links, instances);
  spec.dynamics.queue_slots = 150;
  spec.dynamics.regret_rounds = 150;
  return spec;
}

// Each task reads only the dense slabs the engine's task table names for
// it.  Run alone, a task's kernel holds only those slabs, so an
// under-declared slab trips a DL_CHECK at its entry point.  A task alone
// populates zeta and exactly its own rows of the metric table, each equal
// to the all-tasks run's, and leaves every other row empty.  Dense mode
// over every builtin plus a random-access queue, far-field mode (admission
// tasks on the far-field kernel, the rest on a lazily built dense one), and
// through warm arenas that cycle through the slab sets.
TEST(BatchRunnerTest, EachTaskAloneMatchesAllTasksRun) {
  std::vector<ScenarioSpec> specs;
  for (const ScenarioSpec& spec : BuiltinScenarios()) {
    specs.push_back(SmallDynamics(spec, 10, 2));
  }
  ScenarioSpec random_access = specs.front();
  random_access.name = "random_access_queue";
  random_access.dynamics.scheduler = dynamics::Scheduler::kRandomAccess;
  specs.push_back(random_access);
  ScenarioSpec farfield =
      SmallDynamics(*FindBuiltinScenario("uniform_dense"), 10, 2);
  farfield.name = "farfield";
  farfield.kernel_mode = KernelMode::kFarField;
  specs.push_back(farfield);

  BatchConfig all;
  all.threads = 1;
  const auto reference = BatchRunner(all).Run(specs);
  // All tasks populate zeta and every row of the metric table.
  const std::span<const AggregateMetric> metrics = AggregateMetrics();
  for (const ScenarioResult& result : reference) {
    ASSERT_EQ(result.aggregate.size(), metrics.size() + 1);
    EXPECT_EQ(result.aggregate[0].first, "zeta");
    for (const auto& [name, m] : result.aggregate) {
      EXPECT_GT(m.count, 0) << result.spec.name << " " << name;
    }
  }
  std::vector<sinr::KernelArena> arenas(1);
  for (const TaskKind task : AllTasks()) {
    BatchConfig alone;
    alone.threads = 1;
    alone.tasks = {task};
    alone.arenas = std::span(arenas);
    const auto results = BatchRunner(alone).Run(specs);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t s = 0; s < results.size(); ++s) {
      const auto& aggregate = results[s].aggregate;
      ASSERT_EQ(aggregate.size(), metrics.size() + 1);
      EXPECT_EQ(aggregate[0].second, reference[s].aggregate[0].second);
      for (std::size_t r = 0; r < metrics.size(); ++r) {
        const auto& [name, m] = aggregate[r + 1];
        EXPECT_EQ(name, metrics[r].name);
        // The power-control gain also needs the greedy baseline's size, so
        // power control alone leaves it empty.
        const bool own =
            metrics[r].task == task && name != "pc_gain_vs_uniform";
        EXPECT_EQ(m.count > 0, own)
            << TaskKindName(task) << " " << specs[s].name << " " << name;
        if (own) {
          EXPECT_EQ(m, reference[s].aggregate[r + 1].second)
              << TaskKindName(task) << " " << specs[s].name << " " << name;
        }
      }
    }
  }
}

// The queue's slabs follow its scheduler: an LQF queue reads affectances
// only, so a dense queue-only run leaves its arena slot holding one n x n
// slab -- a later affectance-only rebuild of that slot retains no cross
// slab.
TEST(BatchRunnerTest, AdmissionQueueBuildsNoCrossSlab) {
  const ScenarioSpec spec =
      SmallDynamics(*FindBuiltinScenario("uniform_dense"), 10, 2);
  ASSERT_EQ(spec.kernel_mode, KernelMode::kDense);
  ASSERT_EQ(spec.dynamics.scheduler, dynamics::Scheduler::kLongestQueueFirst);
  std::vector<sinr::KernelArena> arenas(1);
  BatchConfig config;
  config.threads = 1;
  config.tasks = {TaskKind::kQueue};
  config.arenas = std::span(arenas);
  (void)BatchRunner(config).RunOne(spec);
  EXPECT_EQ(arenas[0].rebuilds(), 2);

  const ScenarioInstance instance = BuildInstance(spec, 0);
  const long long n = instance.NumLinks();
  EXPECT_EQ(arenas[0]
                .Rebuild(instance.system(), instance.power(),
                         sinr::KernelSlabs::kAffectance)
                .MemoryBytes(),
            n * n * 8 + 17 * n);
}

// The dynamics tasks obey the engine's core contract: their rng streams
// derive from (spec.seed, instance index) alone, so the aggregate is
// bit-identical across worker-pool sizes.
TEST(BatchRunnerTest, DynamicsTasksBitIdenticalAcrossThreadCounts) {
  std::vector<ScenarioSpec> specs;
  for (const ScenarioSpec& spec : BuiltinScenarios()) {
    specs.push_back(SmallDynamics(spec, 10, 4));
  }
  BatchConfig serial;
  serial.threads = 1;
  serial.tasks = {TaskKind::kQueue, TaskKind::kRegret};
  BatchConfig pooled = serial;
  pooled.threads = 4;

  const auto a = BatchRunner(serial).Run(specs);
  const auto b = BatchRunner(pooled).Run(specs);
  EXPECT_EQ(AggregateSignature(a), AggregateSignature(b));
  // The signature actually covers the dynamics metrics.
  EXPECT_NE(AggregateSignature(a).find("queue_throughput"), std::string::npos);
  EXPECT_NE(AggregateSignature(a).find("regret_successes"), std::string::npos);
}

// Dynamics records stay in range: throughput can never exceed the offered
// load (packets served <= packets arrived, modulo the warmup window), the
// instability flag is boolean, and the regret statistics are finite.
TEST(BatchRunnerTest, DynamicsTasksRecordInRangeStatistics) {
  BatchConfig config;
  config.threads = 2;
  config.tasks = {TaskKind::kQueue, TaskKind::kRegret};
  ScenarioSpec spec = SmallDynamics(BuiltinScenarios().front(), 10, 3);
  spec.dynamics.lambda = 0.2;
  const ScenarioResult result = BatchRunner(config).RunOne(spec);
  for (const InstanceRecord& rec : result.instances) {
    EXPECT_GE(rec.queue_throughput, 0.0);
    // Stable or not, the scheduler cannot serve more than one packet per
    // link per slot.
    EXPECT_LE(rec.queue_throughput, static_cast<double>(rec.links));
    EXPECT_GE(rec.queue_mean_queue, 0.0);
    EXPECT_GT(rec.queue_backlog_growth, 0.0);
    EXPECT_TRUE(rec.queue_unstable == 0 || rec.queue_unstable == 1);
    EXPECT_TRUE(std::isfinite(rec.regret_successes));
    EXPECT_GE(rec.regret_successes, 0.0);
    EXPECT_GE(rec.regret_transmit_rate, 0.0);
    EXPECT_LE(rec.regret_transmit_rate, 1.0);
  }
  for (const char* metric : {"queue_throughput", "queue_mean_queue",
                             "queue_backlog_growth", "queue_unstable",
                             "regret_successes", "regret_transmit_rate"}) {
    const MetricSummary* m = FindAggregateMetric(result, metric);
    ASSERT_NE(m, nullptr) << metric;
    EXPECT_EQ(m->count, 3) << metric;
  }
}

// Invalid dynamics knobs are rejected by the engine before any worker
// starts -- as recoverable core::StatusError now, so a sweep can isolate
// the bad cell instead of losing the process.
TEST(BatchRunnerTest, InvalidDynamicsConfigRejected) {
  BatchConfig config;
  config.threads = 1;
  config.tasks = {TaskKind::kQueue, TaskKind::kRegret};
  const BatchRunner runner(config);
  const auto expect_invalid = [&](const ScenarioSpec& spec,
                                  const std::string& needle) {
    try {
      runner.RunOne(spec);
      FAIL() << "expected StatusError mentioning '" << needle << "'";
    } catch (const core::StatusError& e) {
      EXPECT_EQ(e.status().code(), core::StatusCode::kInvalidArgument);
      EXPECT_NE(e.status().message().find(needle), std::string::npos)
          << e.status().message();
    }
  };
  ScenarioSpec bad_lambda = SmallDynamics(BuiltinScenarios().front(), 6, 1);
  bad_lambda.dynamics.lambda = 1.5;
  expect_invalid(bad_lambda, "Bernoulli");
  ScenarioSpec bad_penalty = SmallDynamics(BuiltinScenarios().front(), 6, 1);
  bad_penalty.dynamics.regret_penalty = -1.0;
  expect_invalid(bad_penalty, "penalty");
  ScenarioSpec bad_rate = SmallDynamics(BuiltinScenarios().front(), 6, 1);
  bad_rate.dynamics.regret_learning_rate = 1.0;
  expect_invalid(bad_rate, "learning rate");
  ScenarioSpec bad_topology = SmallDynamics(BuiltinScenarios().front(), 6, 1);
  bad_topology.topology = "hexagonal";
  expect_invalid(bad_topology, "topology");
}

TEST(ReportTest, JsonReportRoundTrips) {
  BatchConfig config;
  config.threads = 1;
  const ScenarioSpec spec = Small(BuiltinScenarios().front(), 8, 1);
  const std::vector<ScenarioResult> results = {BatchRunner(config).RunOne(spec)};
  ASSERT_TRUE(WriteJsonReport("ENGINE_TEST", results));
  // The file is a valid BENCH v2 record: strict re-parse, provenance, one
  // batch/kernel_build/tasks phase triple for the scenario.
  const core::StatusOr<obs::BenchReportData> parsed =
      obs::LoadBenchReport("BENCH_ENGINE_TEST.json");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->bench, "ENGINE_TEST");
  EXPECT_EQ(parsed->schema, 2);
  EXPECT_EQ(parsed->phases.size(), 3u);
  EXPECT_NE(parsed->provenance.git_sha, "");
  ASSERT_NE(parsed->Find(spec.name + ".batch"), nullptr);
  EXPECT_EQ(parsed->Find(spec.name + ".batch")->n, spec.links);
  EXPECT_EQ(std::remove("BENCH_ENGINE_TEST.json"), 0);
}

// ViolationCount sums exactly the rows whose role is kViolation, whatever
// the other rows hold.
TEST(ReportTest, ViolationCountFollowsRoles) {
  ScenarioResult result;
  int violation_rows = 0;
  for (const AggregateMetric& metric : AggregateMetrics()) {
    MetricSummary summary;
    if (metric.role == MetricRole::kViolation) {
      ++violation_rows;
      summary.Add(violation_rows == 1 ? 2.0 : 3.0);
    } else {
      summary.Add(100.0);  // would dominate the count if it leaked in
    }
    result.aggregate.emplace_back(metric.name, summary);
  }
  ASSERT_EQ(violation_rows, 2);
  EXPECT_EQ(ViolationCount(std::span(&result, 1)), 5);
  const std::vector<ScenarioResult> twice = {result, result};
  EXPECT_EQ(ViolationCount(twice), 10);
  for (auto& [name, m] : result.aggregate) {
    if (name == "alg1_infeasible" || name == "schedule_invalid") m = {};
  }
  EXPECT_EQ(ViolationCount(std::span(&result, 1)), 0);
}

// The observability layer must be inert: the deterministic aggregate is
// bit-identical with metrics + tracing on vs off, at any thread count.
TEST(BatchRunnerTest, ObservabilityOnOffLeavesSignatureBitIdentical) {
  const std::vector<ScenarioSpec> specs = {Small(BuiltinScenarios().front())};
  BatchConfig pooled;
  pooled.threads = 4;
  BatchConfig serial;
  serial.threads = 1;

  obs::SetEnabled(false);
  const std::string sig =
      AggregateSignature(BatchRunner(pooled).Run(specs));

  obs::SetEnabled(true);
  obs::TraceSink::Global().Start();
  const std::vector<ScenarioResult> on_pooled = BatchRunner(pooled).Run(specs);
  const std::vector<ScenarioResult> on_serial = BatchRunner(serial).Run(specs);
  EXPECT_GT(obs::TraceSink::Global().EventCount(), 0u);
  obs::TraceSink::Global().Stop();
  obs::TraceSink::Global().Clear();
  obs::SetEnabled(false);

  EXPECT_EQ(AggregateSignature(on_pooled), sig);
  EXPECT_EQ(AggregateSignature(on_serial), sig);
}

// Stage stats are span wall clock, populated with observability off: one
// kernel_build and one geometry stage entry per instance, one task.<kind>
// entry per configured task per instance.
TEST(BatchRunnerTest, StageStatsCoverEveryInstanceAndTask) {
  BatchConfig config;
  config.threads = 2;
  const ScenarioSpec spec = Small(BuiltinScenarios().front());
  const ScenarioResult r = BatchRunner(config).RunOne(spec);
  const long long n = static_cast<long long>(r.instances.size());

  const obs::StageStats::Stage* kernel = r.stage_stats.Find("kernel_build");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->count, n);
  EXPECT_GE(kernel->max_ms, kernel->min_ms);
  const obs::StageStats::Stage* geometry =
      r.stage_stats.Find("geometry_build");
  ASSERT_NE(geometry, nullptr);  // no cache configured: all builds
  EXPECT_EQ(geometry->count, n);
  for (const TaskKind task : AllTasks()) {
    const std::string key = std::string("task.") + TaskKindName(task);
    const obs::StageStats::Stage* stage = r.stage_stats.Find(key);
    ASSERT_NE(stage, nullptr) << key;
    EXPECT_EQ(stage->count, n) << key;
  }
  // Per record: one entry per stage the instance ran, none negative.
  for (const InstanceRecord& rec : r.instances) {
    ASSERT_NE(rec.stages.Find("kernel_build"), nullptr);
    EXPECT_EQ(rec.stages.Find("kernel_build")->count, 1);
    ASSERT_NE(rec.stages.Find("geometry_build"), nullptr);
    EXPECT_EQ(rec.stages.Find("geometry_build")->count, 1);
    for (const TaskKind task : AllTasks()) {
      const obs::StageStats::Stage* stage =
          rec.stages.Find(std::string("task.") + TaskKindName(task));
      ASSERT_NE(stage, nullptr) << TaskKindName(task);
      EXPECT_EQ(stage->count, 1) << TaskKindName(task);
      EXPECT_GE(stage->min_ms, 0.0) << TaskKindName(task);
    }
  }
}

// A task subset leaves the unrun kinds without a stage entry.
TEST(BatchRunnerTest, TaskSubsetKeepsUnrunTimerSentinels) {
  BatchConfig config;
  config.threads = 1;
  config.tasks = {TaskKind::kGreedyBaseline};
  const ScenarioSpec spec = Small(BuiltinScenarios().front(), 10, 2);
  const ScenarioResult r = BatchRunner(config).RunOne(spec);
  for (const InstanceRecord& rec : r.instances) {
    const obs::StageStats::Stage* greedy = rec.stages.Find("task.greedy");
    ASSERT_NE(greedy, nullptr);
    EXPECT_EQ(greedy->count, 1);
    EXPECT_GE(greedy->total_ms, 0.0);
    EXPECT_EQ(rec.stages.Find("task.queue"), nullptr);
  }
  EXPECT_EQ(r.stage_stats.Find("task.queue"), nullptr);
  EXPECT_NE(r.stage_stats.Find("task.greedy"), nullptr);
}

}  // namespace
}  // namespace decaylib::engine
