// KernelArena reuse tests: a cache rebuilt into a warm arena slot must be
// bit-identical to a freshly constructed KernelCache over the same
// (system, power) -- across same-shape rebuilds, shape changes (grow and
// shrink), slab sets, and every query surface including the cross decays
// the power-control queries read.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/decay_space.h"
#include "geom/rng.h"
#include "geom/samplers.h"
#include "sinr/gain_rows.h"
#include "sinr/kernel.h"
#include "sinr/power.h"
#include "sinr/power_control.h"

namespace decaylib::sinr {
namespace {

struct Instance {
  core::DecaySpace space;
  std::vector<Link> links;
  SinrConfig config;
};

Instance MakeInstance(std::uint64_t seed, int link_count, double beta,
                      double noise) {
  geom::Rng rng(seed);
  const auto pts = geom::SampleUniform(2 * link_count, 12.0, 12.0, rng);
  Instance inst{core::DecaySpace::Geometric(pts, 3.0), {}, {beta, noise}};
  for (int i = 0; i < link_count; ++i) inst.links.push_back({2 * i, 2 * i + 1});
  return inst;
}

// Both n x n matrices agree entry for entry: the affectance matrix and the
// cross decays directly, and the affectance matrix also through its readers
// -- a one-member accumulator, whose Out(u) is exactly the clamped entry
// a_u(v), and IsFeasible, which sums raw columns (over every pair {v, w}).
void ExpectBitIdentical(const KernelCache& fresh, const KernelCache& rebuilt) {
  ASSERT_EQ(fresh.NumLinks(), rebuilt.NumLinks());
  const int n = fresh.NumLinks();
  EXPECT_EQ(fresh.HasUniformPower(), rebuilt.HasUniformPower());
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(fresh.LinkDecay(v), rebuilt.LinkDecay(v));
    EXPECT_EQ(fresh.CanOvercomeNoise(v), rebuilt.CanOvercomeNoise(v));
    EXPECT_EQ(fresh.NoiseFactor(v), rebuilt.NoiseFactor(v));
    AffectanceAccumulator from_fresh(fresh);
    AffectanceAccumulator from_rebuilt(rebuilt);
    from_fresh.Add(v);
    from_rebuilt.Add(v);
    for (int w = 0; w < n; ++w) {
      EXPECT_EQ(fresh.AffectanceRaw(w, v), rebuilt.AffectanceRaw(w, v));
      EXPECT_EQ(from_fresh.Out(w), from_rebuilt.Out(w));
      const std::vector<int> pair{v, w};
      EXPECT_EQ(fresh.IsFeasible(pair), rebuilt.IsFeasible(pair));
      EXPECT_EQ(fresh.CrossDecay(w, v), rebuilt.CrossDecay(w, v));
    }
  }
}

TEST(KernelArenaTest, RebuildMatchesFreshCacheSameShape) {
  const Instance inst = MakeInstance(11, 20, 1.5, 0.0);
  const LinkSystem system(inst.space, inst.links, inst.config);
  const PowerAssignment power = UniformPower(system);

  KernelArena arena;
  arena.Rebuild(system, power);  // dirty the slot
  const KernelCache& rebuilt = arena.Rebuild(system, power);
  const KernelCache fresh(system, power);
  ExpectBitIdentical(fresh, rebuilt);
  EXPECT_EQ(arena.rebuilds(), 2);
}

TEST(KernelArenaTest, RebuildAcrossShapesAndRegimes) {
  // Grow, shrink, and switch noise/power regimes through one arena; each
  // rebuild must match a fresh cache exactly (nothing of the previous
  // instance may survive in the reused slabs).
  KernelArena arena;
  struct Shape {
    std::uint64_t seed;
    int links;
    double beta, noise, tau;
  };
  const std::vector<Shape> shapes = {
      {21, 12, 1.5, 0.0, 0.0},
      {22, 30, 1.0, 0.05, 0.0},  // bigger, noisy (some links drown)
      {23, 8, 2.0, 0.0, 0.6},    // smaller, power law
      {24, 30, 1.0, 0.01, 0.3},
  };
  for (const Shape& shape : shapes) {
    const Instance inst =
        MakeInstance(shape.seed, shape.links, shape.beta, shape.noise);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const PowerAssignment power = shape.tau == 0.0
                                      ? UniformPower(system)
                                      : PowerLaw(system, shape.tau);
    const KernelCache& rebuilt = arena.Rebuild(system, power);
    const KernelCache fresh(system, power);
    ExpectBitIdentical(fresh, rebuilt);
  }
  EXPECT_EQ(arena.rebuilds(), static_cast<long long>(shapes.size()));
}

TEST(KernelArenaTest, AggregateQueriesMatchThroughArena) {
  const Instance inst = MakeInstance(31, 16, 1.0, 0.02);
  const LinkSystem system(inst.space, inst.links, inst.config);
  const PowerAssignment power = UniformPower(system);

  KernelArena arena;
  arena.Rebuild(system, power);
  // Interleave a different system, then come back: the warm slabs must not
  // leak between instances.
  const Instance other = MakeInstance(32, 24, 1.5, 0.0);
  const LinkSystem other_system(other.space, other.links, other.config);
  arena.Rebuild(other_system, UniformPower(other_system));
  const KernelCache& kernel = arena.Rebuild(system, power);

  const KernelCache fresh(system, power);
  const std::vector<int> all = AllLinks(system);
  EXPECT_EQ(fresh.IsFeasible(all), kernel.IsFeasible(all));
  AffectanceAccumulator fresh_sums(fresh);
  AffectanceAccumulator arena_sums(kernel);
  for (int v : all) {
    fresh_sums.Add(v);
    arena_sums.Add(v);
  }
  for (int v = 0; v < system.NumLinks(); ++v) {
    EXPECT_EQ(fresh_sums.In(v), arena_sums.In(v));
    EXPECT_EQ(fresh_sums.InRaw(v), arena_sums.InRaw(v));
    EXPECT_EQ(fresh_sums.Out(v), arena_sums.Out(v));
  }
  EXPECT_EQ(fresh.OrderByDecay(), kernel.OrderByDecay());
}

// A kernel built over a coordinate-backed space is the kernel of the dense
// Geometric space over the same points, fresh and through a warm arena
// slot, under uniform and power-law powers.
TEST(KernelArenaTest, CoordinateBackedSpaceBuildsTheDenseKernel) {
  for (std::uint64_t seed = 51; seed <= 54; ++seed) {
    geom::Rng rng(seed);
    const auto pts = geom::SampleUniform(2 * 18, 12.0, 12.0, rng);
    const core::DecaySpace dense = core::DecaySpace::Geometric(pts, 3.0);
    const core::DecaySpace coords =
        core::DecaySpace::CoordinateBacked(pts, 3.0);
    std::vector<Link> links;
    for (int i = 0; i < 18; ++i) links.push_back({2 * i, 2 * i + 1});
    const SinrConfig config{1.5, seed % 2 == 0 ? 0.02 : 0.0};
    const LinkSystem dense_system(dense, links, config);
    const LinkSystem coord_system(coords, links, config);
    const PowerAssignment power = seed % 2 == 0
                                      ? PowerLaw(dense_system, 0.5)
                                      : UniformPower(dense_system);

    const KernelCache reference(dense_system, power);
    ExpectBitIdentical(reference, KernelCache(coord_system, power));
    // Warm slot: the same shape was just built over the dense space.
    KernelArena arena;
    arena.Rebuild(dense_system, power);
    ExpectBitIdentical(reference, arena.Rebuild(coord_system, power));
    EXPECT_EQ(arena.warm_skips(), 1);
  }
}

// The cache holds exactly two n x n double matrices (affectance, cross
// decays) plus the per-link arrays (f_vv, c_v, the noise flag) -- the build
// keeps no workspace of its own -- and a warm arena rebuild of the same
// shape retains exactly that.
TEST(KernelArenaTest, MemoryIsTwoSlabsPlusPerLinkArrays) {
  const auto expected = [](long long n) {
    return 2 * n * n * 8 + n * (8 + 8 + 1);
  };
  const Instance inst = MakeInstance(61, 40, 1.0, 0.01);
  const LinkSystem system(inst.space, inst.links, inst.config);
  EXPECT_EQ(KernelCache(system, UniformPower(system)).MemoryBytes(),
            expected(40));

  KernelArena arena;
  EXPECT_EQ(arena.Rebuild(system, UniformPower(system)).MemoryBytes(),
            expected(40));
  const Instance other = MakeInstance(62, 40, 1.5, 0.0);
  const LinkSystem other_system(other.space, other.links, other.config);
  EXPECT_EQ(arena.Rebuild(other_system, PowerLaw(other_system, 0.5))
                .MemoryBytes(),
            expected(40));
  EXPECT_EQ(arena.warm_skips(), 1);
}

// The slabs `part` was built with equal a full build entry for entry (the
// affectance matrix also through a one-member accumulator's Out, as above;
// the cross decays also the naive LinkSystem::CrossDecay), and so do the
// per-link arrays every build fills.
void ExpectBuiltSlabsMatch(const KernelCache& full, const KernelCache& part) {
  ASSERT_EQ(full.NumLinks(), part.NumLinks());
  const int n = full.NumLinks();
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(full.LinkDecay(v), part.LinkDecay(v));
    EXPECT_EQ(full.CanOvercomeNoise(v), part.CanOvercomeNoise(v));
    EXPECT_EQ(full.NoiseFactor(v), part.NoiseFactor(v));
    if (part.Has(KernelSlabs::kAffectance)) {
      AffectanceAccumulator from_full(full);
      AffectanceAccumulator from_part(part);
      from_full.Add(v);
      from_part.Add(v);
      for (int w = 0; w < n; ++w) {
        EXPECT_EQ(full.AffectanceRaw(w, v), part.AffectanceRaw(w, v));
        EXPECT_EQ(from_full.Out(w), from_part.Out(w));
      }
    }
    for (int w = 0; w < n; ++w) {
      if (part.Has(KernelSlabs::kCrossDecay)) {
        EXPECT_EQ(full.CrossDecay(w, v), part.CrossDecay(w, v));
        // Diagonal included: nothing reads f(s_v, r_v) from the slab, so
        // only the naive value pins it.
        EXPECT_EQ(part.system().CrossDecay(w, v), part.CrossDecay(w, v));
      }
    }
  }
}

// Every slab set, fresh and through one arena slot that cycles through all
// of them, over a dense and a coordinate-backed space, under uniform and
// power-law powers.
TEST(KernelArenaTest, EverySlabSetMatchesTheFullBuild) {
  geom::Rng rng(71);
  const auto pts = geom::SampleUniform(2 * 18, 12.0, 12.0, rng);
  const core::DecaySpace dense = core::DecaySpace::Geometric(pts, 3.0);
  const core::DecaySpace coords = core::DecaySpace::CoordinateBacked(pts, 3.0);
  std::vector<Link> links;
  for (int i = 0; i < 18; ++i) links.push_back({2 * i, 2 * i + 1});
  for (const core::DecaySpace* space : {&dense, &coords}) {
    const LinkSystem system(*space, links, {1.5, 0.02});
    for (const PowerAssignment& power :
         {UniformPower(system), PowerLaw(system, 0.5)}) {
      const KernelCache full(system, power);
      EXPECT_TRUE(full.Has(KernelSlabs::kAll));
      KernelArena arena;
      for (unsigned bits = 0; bits <= 3; ++bits) {
        const auto slabs = static_cast<KernelSlabs>(bits);
        const KernelCache fresh(system, power, slabs);
        ExpectBuiltSlabsMatch(full, fresh);
        const KernelCache& rebuilt = arena.Rebuild(system, power, slabs);
        ExpectBuiltSlabsMatch(full, rebuilt);
        for (const KernelSlabs one :
             {KernelSlabs::kAffectance, KernelSlabs::kCrossDecay}) {
          EXPECT_EQ(fresh.Has(one), Includes(slabs, one));
          EXPECT_EQ(rebuilt.Has(one), Includes(slabs, one));
        }
      }
    }
  }
}

// An admission-only build (affectance) holds one slab.  A warm rebuild
// needs every requested slab already sized: admission then full grows the
// cross slab (cold); full then admission is warm, and the unrequested
// cross slab keeps its capacity, so a later full build is warm too.
TEST(KernelArenaTest, SlabSetsDecideWarmRebuilds) {
  const long long n = 40;
  const Instance inst = MakeInstance(63, static_cast<int>(n), 1.0, 0.01);
  const LinkSystem system(inst.space, inst.links, inst.config);
  const PowerAssignment power = UniformPower(system);
  const KernelSlabs admission = KernelSlabs::kAffectance;
  const long long per_link = n * (8 + 8 + 1);
  EXPECT_EQ(KernelCache(system, power, admission).MemoryBytes(),
            n * n * 8 + per_link);
  EXPECT_EQ(KernelCache(system, power, KernelSlabs::kCrossDecay).MemoryBytes(),
            n * n * 8 + per_link);

  KernelArena arena;
  arena.Rebuild(system, power, admission);
  EXPECT_EQ(arena.Rebuild(system, power).MemoryBytes(),
            2 * n * n * 8 + per_link);
  EXPECT_EQ(arena.warm_skips(), 0);  // the cross slab had to grow
  EXPECT_EQ(arena.Rebuild(system, power, admission).MemoryBytes(),
            2 * n * n * 8 + per_link);
  EXPECT_EQ(arena.warm_skips(), 1);
  arena.Rebuild(system, power);
  EXPECT_EQ(arena.warm_skips(), 2);
  EXPECT_EQ(arena.rebuilds(), 4);
}

// Reading a slab the kernel was not built with is a programmer error,
// caught once at every entry point that reads one.
TEST(KernelSlabsDeathTest, EntryPointsRejectUnbuiltSlabs) {
  const Instance inst = MakeInstance(64, 8, 1.0, 0.0);
  const LinkSystem system(inst.space, inst.links, inst.config);
  const PowerAssignment power = UniformPower(system);
  const KernelCache cross_only(system, power, KernelSlabs::kCrossDecay);
  const KernelCache admission(system, power, KernelSlabs::kAffectance);
  const std::vector<int> S{0, 1, 2};
  EXPECT_DEATH(AffectanceAccumulator{cross_only}, "slab not built");
  EXPECT_DEATH((void)cross_only.IsFeasible(S), "slab not built");
  EXPECT_DEATH((void)FeasibleWithPowerControl(admission, S), "slab not built");
  EXPECT_DEATH((void)PairwiseAffectanceProduct(admission, 0, 1),
               "slab not built");
  EXPECT_DEATH((void)HasPairwiseObstruction(admission, S), "slab not built");
  EXPECT_DEATH(GainRows{admission}, "slab not built");
}

TEST(KernelArenaTest, RebuildCounterStartsAtZero) {
  KernelArena arena;
  EXPECT_EQ(arena.rebuilds(), 0);

  const Instance inst = MakeInstance(41, 6, 1.0, 0.0);
  const LinkSystem system(inst.space, inst.links, inst.config);
  const KernelCache& kernel = arena.Rebuild(system, UniformPower(system));
  EXPECT_EQ(kernel.NumLinks(), system.NumLinks());
  EXPECT_EQ(arena.rebuilds(), 1);
}

}  // namespace
}  // namespace decaylib::sinr
