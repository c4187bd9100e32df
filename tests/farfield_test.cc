// Property tests for the certified far-field kernel (sinr/farfield.h).
//
// Five contracts under test:
//  * the certificate itself -- for every queried in-affectance sum,
//    CertifiedInAffectance's lower <= exact <= upper, across topologies,
//    seeds, decay exponents and subset shapes, on deployments large enough
//    that most intervals really pool (a minimum pooled share is asserted);
//  * exactness anchoring -- the far-field exact expressions are
//    bit-identical to the dense KernelCache entries over the same
//    geometry (EXPECT_EQ on doubles, not EXPECT_NEAR), and at epsilon = 0
//    every admission pipeline run on the far-field tier reproduces its
//    dense run verbatim;
//  * decisions at epsilon > 0 -- feasibility (on the feasible sets the
//    pipelines validate and on random subsets), Algorithm 1's final filter,
//    the separation test and every pipeline's output equal the dense ones
//    on every block-hierarchy shape (deep uniform, corridor, single cell),
//    and exact fallbacks never exceed the flat per-cell scans' counts;
//  * memory -- the kernel, its grids and its hierarchies stay O(n);
//  * engine integration -- kernel_mode = kFarField at epsilon = 0 yields
//    the dense batch signature bit-for-bit, a lazily built dense kernel is
//    timed once (kernel_build, not also its triggering task), and
//    ValidateScenarioSpec rejects far-field specs whose decay is not a pure
//    distance function.
#include "sinr/farfield.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "core/decay_space.h"
#include "engine/batch_runner.h"
#include "engine/report.h"
#include "engine/scenario.h"
#include "geom/rng.h"
#include "obs/registry.h"
#include "scheduling/scheduler.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

namespace decaylib::sinr {
namespace {

// Both tiers run the admission templates.
static_assert(KernelTier<KernelCache>);
static_assert(KernelTier<FarFieldKernel>);

struct Deployment {
  std::vector<geom::Vec2> points;
  std::vector<Link> links;
};

// Planar constant-density deployment: link i = nodes (2i, 2i+1), receiver a
// short random offset from the sender.  `clustered` concentrates senders
// around a few hotspots, the far-field grid's worst case (many occupied
// cells near, few far).
Deployment MakeDeployment(int n, double box, bool clustered, geom::Rng& rng) {
  Deployment dep;
  std::vector<geom::Vec2> hubs;
  if (clustered) {
    for (int h = 0; h < 4; ++h) {
      hubs.push_back({rng.Uniform(0.0, box), rng.Uniform(0.0, box)});
    }
  }
  for (int i = 0; i < n; ++i) {
    geom::Vec2 s{rng.Uniform(0.0, box), rng.Uniform(0.0, box)};
    if (clustered) {
      const geom::Vec2& hub = hubs[static_cast<std::size_t>(i % 4)];
      s = hub + geom::Vec2{rng.Uniform(-1.5, 1.5), rng.Uniform(-1.5, 1.5)};
    }
    const double angle = rng.Uniform(0.0, 6.283185307179586);
    const double len = rng.Uniform(0.5, 1.5);
    dep.points.push_back(s);
    dep.points.push_back(s + geom::Vec2{len, 0.0}.Rotated(angle));
    dep.links.push_back({2 * i, 2 * i + 1});
  }
  return dep;
}

// A corridor much longer than wide: link i = nodes (2i, 2i+1) as in
// MakeDeployment, senders uniform over length x width.  The grids get many
// more columns than rows, with odd sides on the way up the hierarchy.
Deployment MakeCorridor(int n, double length, double width, geom::Rng& rng) {
  Deployment dep;
  for (int i = 0; i < n; ++i) {
    const geom::Vec2 s{rng.Uniform(0.0, length), rng.Uniform(0.0, width)};
    const double angle = rng.Uniform(0.0, 6.283185307179586);
    const double len = rng.Uniform(0.5, 1.5);
    dep.points.push_back(s);
    dep.points.push_back(s + geom::Vec2{len, 0.0}.Rotated(angle));
    dep.links.push_back({2 * i, 2 * i + 1});
  }
  return dep;
}

// Every link shares node 0 -- as its sender (`hub_sends`) or as its
// receiver -- and its other endpoint is uniform in a box: that endpoint
// side's grid is a single cell, a hierarchy with one level.
Deployment MakeStar(int n, double box, bool hub_sends, geom::Rng& rng) {
  Deployment dep;
  dep.points.push_back({0.5 * box, 0.5 * box});
  for (int i = 0; i < n; ++i) {
    dep.points.push_back({rng.Uniform(0.0, box), rng.Uniform(0.0, box)});
    dep.links.push_back(hub_sends ? Link{0, i + 1} : Link{i + 1, 0});
  }
  return dep;
}

std::vector<int> RandomSubset(int n, double p, geom::Rng& rng) {
  std::vector<int> S;
  for (int v = 0; v < n; ++v) {
    if (rng.Chance(p)) S.push_back(v);
  }
  return S;
}

// An interval wider than the fp guard alone pooled at least one cell.
bool IsPooled(const FarFieldKernel::Interval& b) {
  return b.upper - b.lower > 1e-8 * b.upper;
}

// Side of the constant-density box for n links (16 area units per link).
double DensityBox(int n) { return 4.0 * std::sqrt(static_cast<double>(n)); }

// The dense and far-field tiers over one deployment: uniform power 1, no
// noise, far-field epsilon `eps`.
struct TwinTiers {
  TwinTiers(const Deployment& dep, double alpha, double eps)
      : space(core::DecaySpace::Geometric(dep.points, alpha)),
        system(space, dep.links, SinrConfig{1.0, 0.0}),
        dense(system, UniformPower(system)),
        ff(dep.points, dep.links, alpha, SinrConfig{1.0, 0.0},
           UniformPower(system), {eps}) {}

  core::DecaySpace space;
  LinkSystem system;
  KernelCache dense;
  FarFieldKernel ff;
};

TEST(FarFieldCertificateTest, BoundsBracketExact) {
  const int n = 512;
  for (const double alpha : {2.5, 3.5}) {
    for (const bool clustered : {false, true}) {
      for (const double eps : {1e-2, 1e-3}) {
        int queries = 0;
        int pooled = 0;
        for (const std::uint64_t seed : {11u, 12u, 13u}) {
          geom::Rng rng(seed);
          Deployment dep = MakeDeployment(n, DensityBox(n), clustered, rng);
          const SinrConfig config{1.0, 0.0};
          const PowerAssignment power(static_cast<std::size_t>(n), 1.0);
          const FarFieldKernel ff(dep.points, dep.links, alpha, config, power,
                                  {eps});
          SCOPED_TRACE("seed=" + std::to_string(seed) +
                       " alpha=" + std::to_string(alpha) +
                       " clustered=" + std::to_string(clustered) +
                       " eps=" + std::to_string(eps));
          geom::Rng sets(seed * 7 + 1);
          for (int round = 0; round < 6; ++round) {
            const std::vector<int> S = RandomSubset(n, 0.5, sets);
            for (int v = 0; v < n; v += 5) {
              const double exact = ff.InAffectanceRawExact(S, v);
              const auto bounds = ff.CertifiedInAffectance(S, v);
              EXPECT_LE(bounds.lower, exact);
              EXPECT_GE(bounds.upper, exact);
              ++queries;
              if (IsPooled(bounds)) ++pooled;
            }
          }
        }
        // Most queries must really pool, or the bracket checks above would
        // only be testing the exact fallback.
        EXPECT_GE(2 * pooled, queries)
            << "alpha=" << alpha << " clustered=" << clustered
            << " eps=" << eps << ": " << pooled << "/" << queries << " pooled";
      }
    }
  }
}

TEST(FarFieldCertificateTest, ExactExpressionsMatchDenseBitwise) {
  for (const std::uint64_t seed : {21u, 22u}) {
    for (const double alpha : {2.5, 3.0}) {
      geom::Rng rng(seed);
      const int n = 32;
      Deployment dep = MakeDeployment(n, 20.0, false, rng);
      const core::DecaySpace space =
          core::DecaySpace::Geometric(dep.points, alpha);
      const SinrConfig config{1.0, 0.0};
      const LinkSystem system(space, dep.links, config);
      const KernelCache dense(system, UniformPower(system));
      const FarFieldKernel ff(dep.points, dep.links, alpha, config,
                              UniformPower(system), {1e-3});
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " alpha=" + std::to_string(alpha));
      for (int v = 0; v < n; ++v) {
        EXPECT_EQ(ff.LinkDecay(v), dense.LinkDecay(v));
        EXPECT_EQ(ff.CanOvercomeNoise(v), dense.CanOvercomeNoise(v));
        for (int w = 0; w < n; ++w) {
          EXPECT_EQ(ff.AffectanceExact(w, v), dense.AffectanceRaw(w, v));
        }
      }
      geom::Rng sets(seed + 100);
      const std::vector<int> S = RandomSubset(n, 0.6, sets);
      for (int v = 0; v < n; ++v) {
        double fold = 0.0;
        for (int w : S) fold += dense.AffectanceRaw(w, v);
        EXPECT_EQ(ff.InAffectanceRawExact(S, v), fold);
      }
    }
  }
}

TEST(FarFieldPipelineTest, EpsilonZeroBitIdenticalToDense) {
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    for (const double alpha : {2.5, 3.5}) {
      geom::Rng rng(seed);
      const int n = 40;
      Deployment dep = MakeDeployment(n, 24.0, seed % 2 == 1, rng);
      const core::DecaySpace space =
          core::DecaySpace::Geometric(dep.points, alpha);
      const SinrConfig config{1.0, 0.0};
      const LinkSystem system(space, dep.links, config);
      const KernelCache dense(system, UniformPower(system));
      const FarFieldKernel ff(dep.points, dep.links, alpha, config,
                              UniformPower(system), {0.0});
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " alpha=" + std::to_string(alpha));

      const std::vector<int> all = AllLinks(ff);
      EXPECT_EQ(capacity::GreedyFeasible(ff, all),
                capacity::GreedyFeasible(dense, all));

      const double zeta = 3.0;
      const capacity::Algorithm1Result alg1 =
          capacity::RunAlgorithm1(dense, zeta);
      const capacity::Algorithm1Result ff_alg1 =
          capacity::RunAlgorithm1(ff, zeta);
      EXPECT_EQ(ff_alg1.admitted, alg1.admitted);
      EXPECT_EQ(ff_alg1.selected, alg1.selected);

      for (const scheduling::Extractor extractor :
           {scheduling::Extractor::kAlgorithm1,
            scheduling::Extractor::kGreedyFeasible}) {
        const scheduling::Schedule dense_sched =
            scheduling::ScheduleLinks(dense, zeta, extractor, all);
        const scheduling::Schedule ff_sched =
            scheduling::ScheduleLinks(ff, zeta, extractor, all);
        EXPECT_EQ(ff_sched.slots, dense_sched.slots);
        EXPECT_TRUE(scheduling::ValidateSchedule(ff, ff_sched, all));
      }
    }
  }
}

TEST(FarFieldPipelineTest, CertifiedDecisionsMatchDenseAtPositiveEpsilon) {
  // Random instances sit nowhere near the 1e-9 decision band, so certified
  // decisions at epsilon > 0 must reproduce the dense ones exactly even
  // though the certified sums are only epsilon-close.  Feasibility is
  // compared on the sets the pipelines actually validate -- Algorithm 1's
  // output and every schedule slot, all feasible -- on maximal greedy sets
  // with and without one more link, and on random subsets from sparse
  // (often feasible) to dense (rejected at the first member).  The
  // deployments are large enough that the queries really pool.  Random
  // subsets of the clustered deployments are never feasible (links of one
  // hub conflict), so both answers are asserted per epsilon over both
  // deployment kinds.
  const int n = 512;
  for (const double eps : {1e-2, 1e-3}) {
    int feasible = 0;
    int infeasible = 0;
    for (const bool clustered : {false, true}) {
      int queries = 0;
      int pooled = 0;
      for (const std::uint64_t seed : {41u, 42u, 43u}) {
        geom::Rng rng(seed);
        const Deployment dep =
            MakeDeployment(n, DensityBox(n), clustered, rng);
        const TwinTiers t(dep, 3.0, eps);
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " clustered=" + std::to_string(clustered) +
                     " eps=" + std::to_string(eps));

        const std::vector<int> all = AllLinks(t.ff);
        const std::vector<int> greedy = capacity::GreedyFeasible(t.ff, all);
        EXPECT_EQ(greedy, capacity::GreedyFeasible(t.dense, all));
        // A maximal greedy set packs its members' sums close to 1, and
        // adding any further link tips some member just over it: the sets
        // where feasibility is decided nearest the threshold.
        EXPECT_TRUE(t.ff.IsFeasible(greedy));
        for (int u = 0, tried = 0; u < n && tried < 16; ++u) {
          if (std::find(greedy.begin(), greedy.end(), u) != greedy.end()) {
            continue;
          }
          std::vector<int> over = greedy;
          over.push_back(u);
          EXPECT_EQ(t.ff.IsFeasible(over), t.dense.IsFeasible(over))
              << "greedy + " << u;
          ++tried;
        }
        const capacity::Algorithm1Result ff_alg1 =
            capacity::RunAlgorithm1(t.ff, 3.0);
        const capacity::Algorithm1Result alg1 =
            capacity::RunAlgorithm1(t.dense, 3.0);
        EXPECT_EQ(ff_alg1.admitted, alg1.admitted);
        EXPECT_EQ(ff_alg1.selected, alg1.selected);
        ASSERT_GT(alg1.selected.size(), 1u);
        EXPECT_TRUE(t.ff.IsFeasible(ff_alg1.selected));
        EXPECT_TRUE(t.dense.IsFeasible(alg1.selected));
        // A repeated member counts twice in the others' sums and never in
        // its own, on both tiers.
        std::vector<int> repeated = alg1.selected;
        repeated.push_back(repeated.front());
        EXPECT_EQ(t.ff.IsFeasible(repeated), t.dense.IsFeasible(repeated));

        const scheduling::Schedule ff_sched = scheduling::ScheduleLinks(
            t.ff, 3.0, scheduling::Extractor::kAlgorithm1, all);
        const scheduling::Schedule dense_sched = scheduling::ScheduleLinks(
            t.dense, 3.0, scheduling::Extractor::kAlgorithm1, all);
        EXPECT_EQ(ff_sched.slots, dense_sched.slots);
        for (const std::vector<int>& slot : ff_sched.slots) {
          EXPECT_EQ(t.ff.IsFeasible(slot), t.dense.IsFeasible(slot));
        }

        geom::Rng sets(seed + 5);
        for (const double p : {0.02, 0.05, 0.1, 0.4}) {
          for (int round = 0; round < 4; ++round) {
            const std::vector<int> S = RandomSubset(n, p, sets);
            const bool dense_feasible = t.dense.IsFeasible(S);
            EXPECT_EQ(t.ff.IsFeasible(S), dense_feasible) << "p=" << p;
            ++(dense_feasible ? feasible : infeasible);
            if (p < 0.4) continue;
            for (int v : S) {
              ++queries;
              if (IsPooled(t.ff.CertifiedInAffectance(S, v))) ++pooled;
            }
          }
        }
      }
      // Most queries must really pool, or the parity checks above would
      // only be testing the exact fallback.
      EXPECT_GE(2 * pooled, queries)
          << "clustered=" << clustered << " eps=" << eps << ": " << pooled
          << "/" << queries << " pooled";
    }
    EXPECT_GT(feasible, 0) << "eps=" << eps;
    EXPECT_GT(infeasible, 0) << "eps=" << eps;
  }
}

TEST(FarFieldPipelineTest, FinalFilterMatchesDenseOnEveryMember) {
  // InWithinOne certifies from the in-raw bracket and folds exactly only
  // when the bracket does not clear the band; either way it must decide as
  // the dense In(v) <= 1.0 does.  Besides Algorithm 1's admitted sets,
  // greedy sets and random member sets run through the same check, so the
  // filter also sees members over 1.  Epsilon 0 checks the unpooled
  // accumulator's lazily caught-up sums member by member.
  const int n = 512;
  int kept = 0;
  int dropped = 0;
  const auto check = [&](const TwinTiers& t, std::span<const int> members) {
    FarFieldAccumulator acc(t.ff);
    AffectanceAccumulator dense_acc(t.dense);
    for (int v : members) {
      if (!t.ff.CanOvercomeNoise(v) || acc.Contains(v)) continue;
      acc.Add(v);
      dense_acc.Add(v);
    }
    for (int v : acc.members()) {
      const bool within = dense_acc.In(v) <= 1.0;
      EXPECT_EQ(acc.InWithinOne(v), within) << "member " << v;
      ++(within ? kept : dropped);
    }
  };
  for (const bool clustered : {false, true}) {
    for (const double eps : {0.0, 1e-2, 1e-3}) {
      for (const std::uint64_t seed : {61u, 62u}) {
        geom::Rng rng(seed);
        const Deployment dep =
            MakeDeployment(n, DensityBox(n), clustered, rng);
        const TwinTiers t(dep, 3.0, eps);
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " clustered=" + std::to_string(clustered) +
                     " eps=" + std::to_string(eps));
        check(t, capacity::RunAlgorithm1(t.ff, 3.0).admitted);
        check(t, capacity::GreedyFeasible(t.ff, AllLinks(t.ff)));
        geom::Rng sets(seed + 9);
        for (const double p : {0.05, 0.2}) {
          check(t, RandomSubset(n, p, sets));
        }
      }
    }
  }
  EXPECT_GT(kept, 0);
  EXPECT_GT(dropped, 0);
}

class FarFieldObsTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetEnabled(true); }
  void TearDown() override { obs::SetEnabled(false); }
};

TEST_F(FarFieldObsTest, NoMoreExactFallbacksThanFlatCellScans) {
  // The coarse walks hand anything undecided to a leaf-resolution walk
  // (at least as tight as a flat per-cell scan) before folding exactly,
  // so a run never falls back more often than the flat scans did.  The
  // ceilings are the counts the flat per-cell implementation produced on
  // these fixed 1024-link uniform instances (Algorithm 1 + greedy +
  // schedule, epsilon 1e-3).
  const obs::Counter& fallbacks =
      obs::Registry::Global().GetCounter("sinr.farfield_exact_fallbacks");
  const std::vector<std::pair<std::uint64_t, long long>> flat_counts = {
      {1, 1}, {5, 2}, {6, 2}};
  for (const auto& [seed, flat] : flat_counts) {
    engine::ScenarioSpec spec = *engine::FindBuiltinScenario("uniform_dense");
    spec.links = 1024;
    spec.instances = 1;
    spec.seed = seed;
    spec.kernel_mode = engine::KernelMode::kFarField;
    spec.farfield_epsilon = 1e-3;
    engine::BatchConfig config;
    config.threads = 1;
    config.tasks = {engine::TaskKind::kAlgorithm1,
                    engine::TaskKind::kGreedyBaseline,
                    engine::TaskKind::kSchedule};
    const long long before = fallbacks.value();
    const engine::ScenarioResult result =
        engine::BatchRunner(config).RunOne(spec);
    EXPECT_EQ(engine::ViolationCount(std::span(&result, 1)), 0);
    EXPECT_LE(fallbacks.value() - before, flat) << "seed " << seed;
  }
}

TEST(FarFieldPipelineTest, NonUniformPowerFallsBackToExactPaths) {
  geom::Rng rng(51);
  const int n = 30;
  Deployment dep = MakeDeployment(n, 20.0, false, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
  const SinrConfig config{1.0, 0.0};
  const LinkSystem system(space, dep.links, config);
  const PowerAssignment power = PowerLaw(system, 0.5);
  const KernelCache dense(system, power);
  const FarFieldKernel ff(dep.points, dep.links, 3.0, config, power,
                          {1e-3});
  EXPECT_FALSE(ff.HasUniformPower());
  const std::vector<int> all = AllLinks(ff);
  EXPECT_EQ(capacity::GreedyFeasible(ff, all),
            capacity::GreedyFeasible(dense, all));
  for (int v = 0; v < n; ++v) {
    for (int w = 0; w < n; ++w) {
      EXPECT_EQ(ff.AffectanceExact(w, v), dense.AffectanceRaw(w, v));
    }
  }
}

// Level L + 1 of a hierarchy halves level L's sides, rounding up, and the
// last level is the 1x1 root.
void ExpectCeilHalving(std::span<const FarFieldKernel::Level> levels) {
  ASSERT_FALSE(levels.empty());
  for (std::size_t l = 0; l + 1 < levels.size(); ++l) {
    EXPECT_GT(levels[l].cols * levels[l].rows, 1) << "level " << l;
    EXPECT_EQ(levels[l + 1].cols, (levels[l].cols + 1) / 2) << "level " << l;
    EXPECT_EQ(levels[l + 1].rows, (levels[l].rows + 1) / 2) << "level " << l;
    EXPECT_EQ(levels[l + 1].offset,
              levels[l].offset + levels[l].cols * levels[l].rows);
  }
  EXPECT_EQ(levels.back().cols, 1);
  EXPECT_EQ(levels.back().rows, 1);
}

TEST(FarFieldHierarchyTest, DecisionsMatchDenseOnEveryShape) {
  // Every admission pipeline and feasibility on the far-field tier equals
  // the dense tier on three hierarchy shapes: a 2048-link uniform
  // deployment, whose grid is deep enough that blocks above level 0 pool;
  // a corridor, whose grid has many more columns than rows and odd sides
  // up the hierarchy; and the two stars, whose sender (resp. receiver)
  // grid is one cell -- a hierarchy of one level.
  struct Shape {
    std::string name;
    Deployment dep;
  };
  std::vector<Shape> shapes;
  {
    geom::Rng rng(91);
    shapes.push_back({"uniform", MakeDeployment(2048, DensityBox(2048),
                                                false, rng)});
  }
  {
    geom::Rng rng(92);
    shapes.push_back({"corridor", MakeCorridor(512, 600.0, 40.0, rng)});
  }
  {
    geom::Rng rng(93);
    shapes.push_back({"star_out", MakeStar(48, 60.0, true, rng)});
  }
  {
    geom::Rng rng(94);
    shapes.push_back({"star_in", MakeStar(48, 60.0, false, rng)});
  }
  const double zeta = 3.0;
  for (const Shape& shape : shapes) {
    const int n = static_cast<int>(shape.dep.links.size());
    const core::DecaySpace space =
        core::DecaySpace::Geometric(shape.dep.points, 3.0);
    const LinkSystem system(space, shape.dep.links, SinrConfig{1.0, 0.0});
    const KernelCache dense(system, UniformPower(system));
    const std::vector<int> all = AllLinks(dense);
    const capacity::Algorithm1Result alg1 =
        capacity::RunAlgorithm1(dense, zeta);
    const std::vector<int> greedy = capacity::GreedyFeasible(dense, all);
    const scheduling::Schedule sched = scheduling::ScheduleLinks(
        dense, zeta, scheduling::Extractor::kAlgorithm1, all);
    for (const double eps : {1e-3, 1e-2}) {
      const FarFieldKernel ff(shape.dep.points, shape.dep.links, 3.0,
                              SinrConfig{1.0, 0.0}, UniformPower(system),
                              {eps});
      SCOPED_TRACE(shape.name + " eps=" + std::to_string(eps));
      ExpectCeilHalving(ff.SenderLevels());
      ExpectCeilHalving(ff.ReceiverLevels());
      const FarFieldKernel::Level grid = ff.SenderLevels().front();
      if (shape.name == "uniform") {
        EXPECT_GE(ff.SenderLevels().size(), 5u);
      } else if (shape.name == "corridor") {
        EXPECT_GE(grid.cols, 8 * grid.rows);
        EXPECT_GT(grid.rows, 1);
        const auto odd = [](const FarFieldKernel::Level& l) {
          return (l.cols > 1 && l.cols % 2 == 1) ||
                 (l.rows > 1 && l.rows % 2 == 1);
        };
        EXPECT_TRUE(std::any_of(ff.SenderLevels().begin(),
                                ff.SenderLevels().end(), odd));
      } else if (shape.name == "star_out") {
        EXPECT_EQ(ff.SenderLevels().size(), 1u);
      } else {
        EXPECT_EQ(ff.ReceiverLevels().size(), 1u);
      }

      const capacity::Algorithm1Result ff_alg1 =
          capacity::RunAlgorithm1(ff, zeta);
      EXPECT_EQ(ff_alg1.admitted, alg1.admitted);
      EXPECT_EQ(ff_alg1.selected, alg1.selected);
      EXPECT_EQ(capacity::GreedyFeasible(ff, all), greedy);
      const scheduling::Schedule ff_sched = scheduling::ScheduleLinks(
          ff, zeta, scheduling::Extractor::kAlgorithm1, all);
      EXPECT_EQ(ff_sched.slots, sched.slots);

      std::vector<std::vector<int>> sets = {alg1.selected, alg1.admitted,
                                            greedy};
      for (int u = 0, tried = 0; u < n && tried < 8; ++u) {
        if (std::find(greedy.begin(), greedy.end(), u) != greedy.end()) {
          continue;
        }
        sets.push_back(greedy);
        sets.back().push_back(u);
        ++tried;
      }
      geom::Rng subsets(static_cast<std::uint64_t>(n) + 7);
      for (const double p : {0.02, 0.1}) {
        sets.push_back(RandomSubset(n, p, subsets));
      }
      int feasible = 0;
      for (const std::vector<int>& S : sets) {
        const bool dense_feasible = dense.IsFeasible(S);
        EXPECT_EQ(ff.IsFeasible(S), dense_feasible) << "|S|=" << S.size();
        feasible += dense_feasible ? 1 : 0;
      }
      EXPECT_GT(feasible, 0);
      EXPECT_LT(feasible, static_cast<int>(sets.size()));
    }
  }
}

TEST(FarFieldHierarchyTest, SeparationMatchesDenseOracle) {
  // Algorithm 1's separation test against its growing member set: for
  // every candidate the far-field walk -- which prunes a member block only
  // when its box clears the radius from *both* candidate endpoints, then
  // runs SeparationTest's coordinate form -- and the dense oracle -- the
  // same test's matrix form -- must both decide as the naive
  // LinkSystem::IsSeparatedFrom does over the same members.
  const double zeta = 3.0;
  int separated = 0;
  int too_close = 0;
  const auto expect_naive = [&](const TwinTiers& t, int v,
                                const FarFieldAccumulator& acc, double eta) {
    const bool naive = t.system.IsSeparatedFrom(v, acc.members(), eta, zeta);
    EXPECT_EQ(acc.IsSeparatedFromMembers(v, eta, zeta), naive)
        << "candidate " << v << " eta " << eta;
    EXPECT_EQ(SeparationOracle(t.dense, eta, zeta)
                  .IsSeparatedFrom(v, acc.members()),
              naive)
        << "candidate " << v << " eta " << eta;
    return naive;
  };
  for (const int kind : {0, 1, 2}) {
    geom::Rng rng(95 + static_cast<std::uint64_t>(kind));
    const int n = 512;
    const Deployment dep =
        kind == 2 ? MakeCorridor(n, 600.0, 40.0, rng)
                  : MakeDeployment(n, DensityBox(n), kind == 1, rng);
    const TwinTiers t(dep, 3.0, 1e-3);
    SCOPED_TRACE("kind=" + std::to_string(kind));
    FarFieldAccumulator acc(t.ff);
    for (int v : DecayOrder(t.ff, AllLinks(t.ff))) {
      if (!t.ff.CanOvercomeNoise(v)) continue;
      const bool sep = expect_naive(t, v, acc, zeta / 2.0);
      ++(sep ? separated : too_close);
      if (sep && acc.BudgetWithinHalf(v)) acc.Add(v);
    }
    EXPECT_GT(acc.members().size(), 1u);
  }
  EXPECT_GT(separated, 0);
  EXPECT_GT(too_close, 0);

  // A near tie: link 1's sender sits at `leg`, a rotation of its receiver
  // `c` that is longer by NormSq yet smaller in decay, so the pair's min
  // endpoint decay is the sender-sender leg, not the leg nearest by
  // NormSq.  Thresholds at either decay put the pair in the exact band.
  geom::Rng rng(96);
  const geom::Vec2 origin{0.0, 0.0};
  for (int trial = 0; trial < 100000; ++trial) {
    const geom::Vec2 c{rng.Uniform(1.0, 10.0), rng.Uniform(1.0, 10.0)};
    const geom::Vec2 leg = c.Rotated(rng.Uniform(0.0, 1.0));
    const double leg_decay = geom::GeometricDecay(origin, leg, zeta);
    const double c_decay = geom::GeometricDecay(origin, c, zeta);
    if (!(leg.NormSq() > c.NormSq() && leg_decay < c_decay)) continue;
    const TwinTiers t({{origin, {-40.0, -40.0}, leg, c}, {{0, 1}, {2, 3}}},
                      zeta, 1e-3);
    for (const int v : {0, 1}) {
      FarFieldAccumulator acc(t.ff);
      acc.Add(1 - v);
      const double f_vv = t.ff.LinkDecay(v);
      for (const double m : {leg_decay, c_decay}) {
        const double eta = std::pow(m / f_vv, 1.0 / zeta);
        for (const double e : {std::nextafter(eta, 0.0), eta,
                               std::nextafter(eta, 2.0 * eta)}) {
          expect_naive(t, v, acc, e);
        }
      }
    }
    return;
  }
  ADD_FAILURE() << "no near tie found";
}

TEST(FarFieldHierarchyTest, MemoryStaysLinear) {
  // Both grids and both hierarchies are O(n + cells): four times the
  // links at the same density costs at most ~4x the bytes.
  const auto bytes = [](int n) {
    geom::Rng rng(97);
    const Deployment dep = MakeDeployment(n, DensityBox(n), false, rng);
    const PowerAssignment power(static_cast<std::size_t>(n), 1.0);
    return FarFieldKernel(dep.points, dep.links, 3.0, SinrConfig{1.0, 0.0},
                          power, {1e-3})
        .MemoryBytes();
  };
  const long long small = bytes(2048);
  const long long large = bytes(4 * 2048);
  // The endpoint copies alone are 2 * 16 bytes per link; the grids and
  // hierarchies add more on top.
  EXPECT_GT(small, 2048LL * 64);
  EXPECT_LE(static_cast<double>(large), 4.5 * static_cast<double>(small));
}

TEST(FarFieldEngineTest, FarFieldModeAtEpsilonZeroMatchesDenseSignature) {
  engine::ScenarioSpec spec;
  spec.name = "farfield_engine";
  spec.topology = "uniform";
  spec.links = 16;
  spec.instances = 2;
  spec.seed = 777;
  const engine::BatchRunner runner({.threads = 2});

  engine::ScenarioSpec dense_spec = spec;
  dense_spec.kernel_mode = engine::KernelMode::kDense;
  engine::ScenarioSpec ff_spec = spec;
  ff_spec.kernel_mode = engine::KernelMode::kFarField;
  ff_spec.farfield_epsilon = 0.0;

  const std::vector<engine::ScenarioResult> dense =
      runner.Run(std::vector<engine::ScenarioSpec>{dense_spec});
  const std::vector<engine::ScenarioResult> farfield =
      runner.Run(std::vector<engine::ScenarioSpec>{ff_spec});
  EXPECT_EQ(engine::AggregateSignature(farfield),
            engine::AggregateSignature(dense));
}

TEST(FarFieldEngineTest, CertifiedModeAggregatesStayWithinEpsilon) {
  engine::ScenarioSpec spec;
  spec.name = "farfield_engine_eps";
  spec.topology = "uniform";
  spec.links = 20;
  spec.instances = 2;
  spec.seed = 778;
  const engine::BatchRunner runner({.threads = 1});

  engine::ScenarioSpec ff_spec = spec;
  ff_spec.kernel_mode = engine::KernelMode::kFarField;
  ff_spec.farfield_epsilon = 1e-3;

  const std::vector<engine::ScenarioResult> dense =
      runner.Run(std::vector<engine::ScenarioSpec>{spec});
  const std::vector<engine::ScenarioResult> farfield =
      runner.Run(std::vector<engine::ScenarioSpec>{ff_spec});
  ASSERT_EQ(dense.size(), farfield.size());
  EXPECT_EQ(engine::ViolationCount(farfield), 0);
  ASSERT_EQ(dense[0].aggregate.size(), farfield[0].aggregate.size());
  // Relative epsilon with a unit floor; equal values (including the +-inf
  // sentinels of an empty summary) always pass.
  const auto within_eps = [](double d, double f) {
    return d == f || std::abs(d - f) <= 1e-3 * std::max(std::abs(d), 1.0);
  };
  for (std::size_t i = 0; i < dense[0].aggregate.size(); ++i) {
    const auto& [name, ds] = dense[0].aggregate[i];
    const auto& [fname, fs] = farfield[0].aggregate[i];
    EXPECT_EQ(name, fname);
    EXPECT_EQ(ds.count, fs.count) << name;
    EXPECT_PRED2(within_eps, ds.sum, fs.sum) << name;
    EXPECT_PRED2(within_eps, ds.min, fs.min) << name;
    EXPECT_PRED2(within_eps, ds.max, fs.max) << name;
  }
}

// Under kernel_mode=farfield the dense kernel is built lazily, inside the
// first task without a far-field path.  Its build time is charged to
// kernel_build alone -- the triggering task's stage excludes it -- so a
// serial run's stage table still sums to (at most) the batch wall time.
// 256 links keeps the build well above the clock-skew slack.
TEST(FarFieldEngineTest, LazyKernelChargedOnce) {
  engine::ScenarioSpec spec;
  spec.name = "farfield_lazy_kernel";
  spec.topology = "uniform";
  spec.links = 256;
  spec.instances = 4;
  spec.seed = 779;
  spec.kernel_mode = engine::KernelMode::kFarField;
  engine::BatchConfig config;
  config.threads = 1;
  config.tasks = {engine::TaskKind::kAlgorithm1,
                  engine::TaskKind::kGreedyBaseline,
                  engine::TaskKind::kSchedule};
  const long long n = spec.instances;

  const engine::ScenarioResult admission =
      engine::BatchRunner(config).RunOne(spec);
  for (const engine::InstanceRecord& rec : admission.instances) {
    EXPECT_FALSE(rec.kernel_built) << rec.index;
  }
  EXPECT_EQ(admission.stage_stats.Find("kernel_build"), nullptr);
  const obs::StageStats::Stage* farfield =
      admission.stage_stats.Find("farfield_build");
  ASSERT_NE(farfield, nullptr);
  EXPECT_EQ(farfield->count, n);

  config.tasks.push_back(engine::TaskKind::kPartitions);
  const engine::ScenarioResult lazy = engine::BatchRunner(config).RunOne(spec);
  const obs::StageStats::Stage* kernel = lazy.stage_stats.Find("kernel_build");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->count, n);
  EXPECT_LE(lazy.stage_stats.TotalMs(), lazy.batch_wall_ms * 1.02 + 0.5);
}

TEST(FarFieldEngineTest, ValidationRejectsNonDistanceDecay) {
  engine::ScenarioSpec spec;
  spec.name = "bad_farfield";
  spec.topology = "uniform";
  spec.links = 8;
  spec.instances = 1;
  spec.kernel_mode = engine::KernelMode::kFarField;
  EXPECT_TRUE(engine::ValidateScenarioSpec(spec).ok());

  engine::ScenarioSpec shadowed = spec;
  shadowed.sigma_db = 4.0;
  EXPECT_FALSE(engine::ValidateScenarioSpec(shadowed).ok());

  engine::ScenarioSpec powered = spec;
  powered.power_tau = 0.5;
  EXPECT_FALSE(engine::ValidateScenarioSpec(powered).ok());

  engine::ScenarioSpec bad_eps = spec;
  bad_eps.farfield_epsilon = -1.0;
  EXPECT_FALSE(engine::ValidateScenarioSpec(bad_eps).ok());
}

TEST(FarFieldEngineTest, KernelModeNamesRoundTrip) {
  EXPECT_STREQ(engine::KernelModeName(engine::KernelMode::kDense), "dense");
  EXPECT_STREQ(engine::KernelModeName(engine::KernelMode::kFarField),
               "farfield");
  // Names parse back through the kernel_mode row of the field table.
  const engine::ScenarioField* row = engine::FindScenarioField("kernel_mode");
  ASSERT_NE(row, nullptr);
  engine::ScenarioSpec spec;
  for (const engine::KernelMode mode :
       {engine::KernelMode::kFarField, engine::KernelMode::kDense}) {
    ASSERT_TRUE(
        engine::WriteFieldText(spec, *row, engine::KernelModeName(mode)).ok());
    EXPECT_EQ(spec.kernel_mode, mode);
  }
  EXPECT_FALSE(engine::WriteFieldText(spec, *row, "sparse").ok());
  EXPECT_EQ(spec.kernel_mode, engine::KernelMode::kDense);
}

}  // namespace
}  // namespace decaylib::sinr
