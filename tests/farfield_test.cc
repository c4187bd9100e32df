// Property tests for the certified far-field kernel (sinr/farfield.h).
//
// Three contracts under test:
//  * the certificate itself -- for every queried in-affectance sum,
//    CertifiedInAffectance's lower <= exact <= upper with relative width at
//    most epsilon (plus the documented ~3e-9 fp guard), across topologies,
//    seeds, decay exponents and subset shapes, on deployments large enough
//    that most intervals really pool (a minimum pooled share is asserted);
//  * exactness anchoring -- the far-field exact expressions are
//    bit-identical to the dense KernelCache entries over the same
//    geometry (EXPECT_EQ on doubles, not EXPECT_NEAR), and at epsilon = 0
//    every admission pipeline run on the far-field tier reproduces its
//    dense run verbatim;
//  * engine integration -- kernel_mode = kFarField at epsilon = 0 yields
//    the dense batch signature bit-for-bit, and ValidateScenarioSpec
//    rejects far-field specs whose decay is not a pure distance function.
#include "sinr/farfield.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "core/decay_space.h"
#include "engine/batch_runner.h"
#include "engine/scenario.h"
#include "geom/rng.h"
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

TEST(FarFieldCertificateTest, BoundsBracketExactWithinEpsilon) {
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
              // Relative width target plus the documented fp guard slack.
              EXPECT_LE(bounds.upper - bounds.lower,
                        eps * bounds.lower + 1e-8 * bounds.upper + 1e-300);
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
  // decisions at epsilon > 0 must reproduce the dense sets exactly even
  // though the certified sums are only epsilon-close.  The deployment is
  // large enough that the feasibility queries really pool.
  const int n = 512;
  int queries = 0;
  int pooled = 0;
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    geom::Rng rng(seed);
    Deployment dep = MakeDeployment(n, DensityBox(n), false, rng);
    const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
    const SinrConfig config{1.0, 0.0};
    const LinkSystem system(space, dep.links, config);
    const KernelCache dense(system, UniformPower(system));
    const FarFieldKernel ff(dep.points, dep.links, 3.0, config,
                            UniformPower(system), {1e-3});
    SCOPED_TRACE("seed=" + std::to_string(seed));

    const std::vector<int> all = AllLinks(ff);
    EXPECT_EQ(capacity::GreedyFeasible(ff, all),
              capacity::GreedyFeasible(dense, all));
    const capacity::Algorithm1Result ff_alg1 = capacity::RunAlgorithm1(ff, 3.0);
    const capacity::Algorithm1Result alg1 = capacity::RunAlgorithm1(dense, 3.0);
    EXPECT_EQ(ff_alg1.admitted, alg1.admitted);
    EXPECT_EQ(ff_alg1.selected, alg1.selected);

    geom::Rng sets(seed + 5);
    for (int round = 0; round < 8; ++round) {
      const std::vector<int> S = RandomSubset(n, 0.4, sets);
      EXPECT_EQ(ff.IsFeasible(S), dense.IsFeasible(S));
      for (int v : S) {
        ++queries;
        if (IsPooled(ff.CertifiedInAffectance(S, v))) ++pooled;
      }
    }
  }
  EXPECT_GE(2 * pooled, queries) << pooled << "/" << queries << " pooled";
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
  ASSERT_EQ(dense[0].aggregate.size(), farfield[0].aggregate.size());
  for (std::size_t i = 0; i < dense[0].aggregate.size(); ++i) {
    const auto& [name, ds] = dense[0].aggregate[i];
    const auto& [fname, fs] = farfield[0].aggregate[i];
    EXPECT_EQ(name, fname);
    EXPECT_EQ(ds.count, fs.count) << name;
    EXPECT_NEAR(ds.sum, fs.sum,
                1e-3 * std::max(std::abs(ds.sum), 1.0))
        << name;
  }
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
  ASSERT_TRUE(engine::ParseKernelMode("dense").has_value());
  EXPECT_EQ(*engine::ParseKernelMode("dense"), engine::KernelMode::kDense);
  ASSERT_TRUE(engine::ParseKernelMode("farfield").has_value());
  EXPECT_EQ(*engine::ParseKernelMode("farfield"),
            engine::KernelMode::kFarField);
  EXPECT_FALSE(engine::ParseKernelMode("sparse").has_value());
}

}  // namespace
}  // namespace decaylib::sinr
