#include "core/metricity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/decay_space.h"
#include "engine/scenario.h"
#include "geom/rng.h"
#include "geom/samplers.h"
#include "spaces/constructions.h"
#include "spaces/samplers.h"

namespace decaylib::core {
namespace {

TEST(TripletZetaTest, UnconstrainedWhenLongestSideNotUnique) {
  EXPECT_DOUBLE_EQ(TripletZeta(1.0, 2.0, 0.5), 0.0);  // a <= b
  EXPECT_DOUBLE_EQ(TripletZeta(1.0, 0.5, 2.0), 0.0);  // a <= c
  EXPECT_DOUBLE_EQ(TripletZeta(2.0, 2.0, 2.0), 0.0);
}

TEST(TripletZetaTest, CollinearGeometricTriplet) {
  // Distances 1, 1, 2 raised to alpha: the root is exactly s = 1/alpha.
  for (const double alpha : {1.0, 2.0, 3.0, 4.5, 6.0}) {
    const double a = std::pow(2.0, alpha);
    EXPECT_NEAR(TripletZeta(a, 1.0, 1.0), alpha, 1e-6) << "alpha=" << alpha;
  }
}

TEST(TripletZetaTest, AsymmetricSides) {
  // b^s + c^s = a^s at the root; verify the returned zeta satisfies the
  // defining identity.
  const double zeta = TripletZeta(10.0, 2.0, 3.0);
  ASSERT_GT(zeta, 0.0);
  const double s = 1.0 / zeta;
  EXPECT_NEAR(std::pow(2.0, s) + std::pow(3.0, s), std::pow(10.0, s), 1e-6);
}

TEST(MetricityTest, UniformSpaceIsUnconstrained) {
  const DecaySpace space(5);
  EXPECT_DOUBLE_EQ(Metricity(space), 0.0);
  EXPECT_EQ(ComputeMetricity(space).arg_x, -1);
}

class LineSpaceMetricity : public ::testing::TestWithParam<double> {};

TEST_P(LineSpaceMetricity, EqualsAlphaExactly) {
  const double alpha = GetParam();
  const DecaySpace space = spaces::LineSpace(8, 1.0, alpha);
  EXPECT_NEAR(Metricity(space), alpha, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, LineSpaceMetricity,
                         ::testing::Values(1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0,
                                           6.0));

class PlanarMetricityBound : public ::testing::TestWithParam<double> {};

TEST_P(PlanarMetricityBound, AtMostAlpha) {
  const double alpha = GetParam();
  geom::Rng rng(42);
  const auto pts = geom::SampleUniform(24, 10.0, 10.0, rng);
  const DecaySpace space = DecaySpace::Geometric(pts, alpha);
  EXPECT_LE(Metricity(space), alpha + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, PlanarMetricityBound,
                         ::testing::Values(1.0, 2.0, 3.0, 4.0, 6.0));

TEST(MetricityTest, WitnessTripletAttainsZeta) {
  geom::Rng rng(7);
  const DecaySpace space = spaces::LogUniformSpace(10, 100.0, rng);
  const MetricityResult result = ComputeMetricity(space);
  ASSERT_GE(result.arg_x, 0);
  const double from_witness =
      TripletZeta(space(result.arg_x, result.arg_y),
                  space(result.arg_x, result.arg_z),
                  space(result.arg_z, result.arg_y));
  EXPECT_NEAR(from_witness, result.zeta, 1e-9);
}

TEST(MetricityTest, UpperBoundHolds) {
  geom::Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const DecaySpace space = spaces::LogUniformSpace(8, 50.0, rng, false);
    const double zeta = Metricity(space);
    // The remark after Def. 2.2: lg(max/min) always satisfies inequality (2).
    EXPECT_LE(zeta, std::max(0.0, MetricityUpperBound(space)) + 1e-9)
        << "trial " << trial;
  }
}

TEST(MetricityTest, ShadowingIncreasesMetricity) {
  geom::Rng rng(9);
  const auto pts = geom::SampleUniform(20, 10.0, 10.0, rng);
  const DecaySpace clean = DecaySpace::Geometric(pts, 3.0);
  geom::Rng rng2(10);
  const DecaySpace noisy =
      spaces::ShadowedGeometric(pts, 3.0, 8.0, rng2, true);
  EXPECT_GT(Metricity(noisy), Metricity(clean));
}

TEST(PhiTest, MetricSpaceHasSmallPhiFactor) {
  // In a metric (alpha = 1 geometric space) f_xz <= f_xy + f_yz, so the
  // factor is at most 1 (phi <= 0).
  const DecaySpace space = spaces::LineSpace(6, 1.0, 1.0);
  const PhiResult phi = ComputePhi(space);
  EXPECT_LE(phi.phi_factor, 1.0 + 1e-9);
  EXPECT_LE(phi.phi, 1e-9);
}

TEST(PhiTest, CollinearAlphaSpace) {
  // Collinear points with decay d^alpha: worst triplet is the doubling one,
  // phi_factor = 2^alpha / 2 = 2^{alpha-1}, so phi = alpha - 1.
  const double alpha = 3.0;
  const DecaySpace space = spaces::LineSpace(8, 1.0, alpha);
  const PhiResult phi = ComputePhi(space);
  EXPECT_NEAR(phi.phi, alpha - 1.0, 1e-6);
}

TEST(PhiTest, WitnessAttainsFactor) {
  geom::Rng rng(11);
  const DecaySpace space = spaces::LogUniformSpace(10, 1000.0, rng);
  const PhiResult phi = ComputePhi(space);
  ASSERT_GE(phi.arg_x, 0);
  const double check = space(phi.arg_x, phi.arg_z) /
                       (space(phi.arg_x, phi.arg_y) +
                        space(phi.arg_y, phi.arg_z));
  EXPECT_NEAR(check, phi.phi_factor, 1e-12);
}

// The provable direction of the zeta/phi relation (see metricity.h): the
// paper's own derivation gives f_xz <= 2^zeta (f_xy + f_yz), i.e. phi <= zeta
// for spaces where zeta >= 1.
class PhiAtMostZeta : public ::testing::TestWithParam<int> {};

TEST_P(PhiAtMostZeta, OnRandomSpaces) {
  geom::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const DecaySpace space = spaces::LogUniformSpace(9, 500.0, rng, false);
  const double zeta = Metricity(space);
  const PhiResult phi = ComputePhi(space);
  if (zeta >= 1.0) {
    EXPECT_LE(phi.phi, zeta + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhiAtMostZeta, ::testing::Range(1, 21));

TEST(ZetaPhiTripleTest, PhiBoundedZetaGrows) {
  // Sec. 4.2: f_ab = 1, f_bc = q, f_ac = 2q has phi_factor < 2 for all q but
  // zeta = Theta(log q / log log q) -> unbounded.
  double last_zeta = 0.0;
  for (const double q : {1e2, 1e4, 1e8, 1e12}) {
    const DecaySpace space = spaces::ZetaPhiTriple(q);
    const PhiResult phi = ComputePhi(space);
    EXPECT_LT(phi.phi_factor, 2.0 + 1e-9);
    const double zeta = Metricity(space);
    EXPECT_GT(zeta, last_zeta);  // strictly growing along the sweep
    last_zeta = zeta;
  }
  EXPECT_GT(last_zeta, 4.0);  // far above the phi bound
}

// --- pruned vs naive equality ---------------------------------------------
//
// ComputeMetricity and ComputePhi prune against the incumbent; they must
// still return the same extremum *and the same witness triplet* as the
// exhaustive reference scans (the prunes carry a tolerance slack, so the
// update sequence is identical to the naive one).  Everything is compared
// exactly.

void ExpectMatchesNaive(const DecaySpace& space) {
  const MetricityResult pruned = ComputeMetricity(space);
  const MetricityResult naive = ComputeMetricityNaive(space);
  EXPECT_EQ(pruned.zeta, naive.zeta);
  EXPECT_EQ(pruned.arg_x, naive.arg_x);
  EXPECT_EQ(pruned.arg_y, naive.arg_y);
  EXPECT_EQ(pruned.arg_z, naive.arg_z);
  const PhiResult fast_phi = ComputePhi(space);
  const PhiResult naive_phi = ComputePhiNaive(space);
  EXPECT_EQ(fast_phi.phi_factor, naive_phi.phi_factor);
  EXPECT_EQ(fast_phi.arg_x, naive_phi.arg_x);
  EXPECT_EQ(fast_phi.arg_y, naive_phi.arg_y);
  EXPECT_EQ(fast_phi.arg_z, naive_phi.arg_z);
}

class PrunedMetricityEquality : public ::testing::TestWithParam<int> {};

TEST_P(PrunedMetricityEquality, MatchesNaiveOnRandomSpaces) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  geom::Rng rng(seed);
  const std::vector<DecaySpace> cases = {
      spaces::RandomGeometric(26, 12.0, 12.0, 3.0, rng),
      spaces::LogUniformSpace(22, 300.0, rng, /*symmetric=*/false),
      spaces::LogUniformSpace(20, 50.0, rng, /*symmetric=*/true),
      spaces::LineSpace(14, 1.0, 2.0 + 0.5 * static_cast<double>(seed % 5)),
      // Huge decay spread (dense hotspots, thin corridors) makes the
      // per-(x,z) row-min block prune of ComputePhi fire on most pairs;
      // these cases pin the pruned scan to the naive one where it matters.
      spaces::ClusteredGeometric(18, 3, 40.0, 0.2, 4.0, 0.0, rng),
      spaces::CorridorSpace(18, 200.0, 0.5, 3.0, 0.0, rng),
  };
  for (const DecaySpace& space : cases) {
    const MetricityResult pruned = ComputeMetricity(space);
    const MetricityResult naive = ComputeMetricityNaive(space);
    EXPECT_EQ(pruned.zeta, naive.zeta);
    EXPECT_EQ(pruned.arg_x, naive.arg_x);
    EXPECT_EQ(pruned.arg_y, naive.arg_y);
    EXPECT_EQ(pruned.arg_z, naive.arg_z);
    if (naive.zeta > 0.0) {
      ASSERT_GE(pruned.arg_x, 0);
      EXPECT_EQ(TripletZeta(space(pruned.arg_x, pruned.arg_y),
                            space(pruned.arg_x, pruned.arg_z),
                            space(pruned.arg_z, pruned.arg_y)),
                pruned.zeta);
    } else {
      EXPECT_EQ(pruned.arg_x, -1);
    }

    const PhiResult fast_phi = ComputePhi(space);
    const PhiResult naive_phi = ComputePhiNaive(space);
    EXPECT_EQ(fast_phi.phi_factor, naive_phi.phi_factor);
    EXPECT_EQ(fast_phi.phi, naive_phi.phi);
    EXPECT_EQ(fast_phi.arg_x, naive_phi.arg_x);
    EXPECT_EQ(fast_phi.arg_y, naive_phi.arg_y);
    EXPECT_EQ(fast_phi.arg_z, naive_phi.arg_z);
    if (naive_phi.phi_factor > 0.0) {
      ASSERT_GE(fast_phi.arg_x, 0);
      EXPECT_EQ(space(fast_phi.arg_x, fast_phi.arg_z) /
                    (space(fast_phi.arg_x, fast_phi.arg_y) +
                     space(fast_phi.arg_y, fast_phi.arg_z)),
                fast_phi.phi_factor);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedMetricityEquality,
                         ::testing::Range(1, 11));

TEST(PrunedMetricityEquality, MatchesNaiveAcrossThreadChunks) {
  // The largest random fixture: 72 nodes of a shadow-free space, where the
  // root space is built once and serves the whole scan.
  geom::Rng rng(99);
  ExpectMatchesNaive(spaces::RandomGeometric(72, 15.0, 15.0, 2.8, rng));
}

TEST(PrunedMetricityEquality, MatchesNaiveOnBuiltinGeometries) {
  // The engine's own geometries.  The shadowed spaces are its measured-zeta
  // traffic; their incumbent grows in steps that rebuild the root space
  // several times mid-scan.
  for (const char* name : {"shadowed_asymmetric", "shadowed_symmetric",
                           "uniform_dense", "highway_corridor"}) {
    std::optional<engine::ScenarioSpec> spec =
        engine::FindBuiltinScenario(name);
    ASSERT_TRUE(spec.has_value()) << name;
    spec->links = 24;
    for (int index = 0; index < 2; ++index) {
      SCOPED_TRACE(std::string(name) + " #" + std::to_string(index));
      ExpectMatchesNaive(*engine::BuildGeometry(*spec, index).space);
    }
  }
}

TEST(PrunedMetricityEquality, MatchesNaiveWhenRootSpaceLeavesDoubleRange) {
  // The first constraining triple (0,1,2) is a near-tie with zeta ~ 0.0014,
  // so the root space is built at s ~ 693, where every decay here
  // overflows.  The only other constraining triple, (2,0,1) with zeta = 2,
  // must not be pruned by inf + inf >= inf.
  DecaySpace space(3, 1000.0);
  space.Set(0, 1, 1001.0);
  space.Set(2, 0, 4000.0);
  ExpectMatchesNaive(space);
  EXPECT_NEAR(ComputeMetricity(space).zeta, 2.0, 1e-9);
}

TEST(PrunedMetricityEquality, MatchesNaiveWhenWitnessWaypointIsInTheTail) {
  // Both scans skip a pair by one min-plus reduction over its waypoints,
  // which runs four at a time and then over the last n % 4.  Every decay
  // is 16 except the chains 0 -> 2 -> 1 (legs 2) and 1 -> w -> 0 (legs 1),
  // so triple (0,1,2) warms the incumbent (zeta 3, phi factor 4) and w, in
  // the remainder, is the only waypoint that lets the witness pair (1,0)
  // beat it (zeta 4, phi factor 8).  A reduction that missed the remainder
  // would skip (1,0).
  for (const int n : {3, 5, 6, 7}) {
    for (int w = std::max(2, n - n % 4); w < n; ++w) {
      SCOPED_TRACE("n=" + std::to_string(n) + " w=" + std::to_string(w));
      DecaySpace space(n, 16.0);
      space.Set(0, 2, 2.0);
      space.Set(2, 1, 2.0);
      space.Set(1, w, 1.0);
      space.Set(w, 0, 1.0);
      ExpectMatchesNaive(space);
      const MetricityResult zeta = ComputeMetricity(space);
      EXPECT_NEAR(zeta.zeta, 4.0, 1e-9);
      EXPECT_EQ(zeta.arg_x, 1);
      EXPECT_EQ(zeta.arg_y, 0);
      EXPECT_EQ(zeta.arg_z, w);
      const PhiResult phi = ComputePhi(space);
      EXPECT_EQ(phi.phi_factor, 8.0);
      EXPECT_EQ(phi.arg_x, 1);
      EXPECT_EQ(phi.arg_y, w);
      EXPECT_EQ(phi.arg_z, 0);
    }
  }
}

TEST(PrunedMetricityEquality, MatchesNaiveWhenWitnessWaypointIsInALaterBlock) {
  // ComputeMetricity's pair certificate stops at the first 64-waypoint
  // block whose min-plus falls below the bound.  The same chains as above,
  // with the lone useful waypoint w of the witness pair (1,0) in a later
  // block: at a block's first lane, in its four-wide body, or in the
  // remainder lanes of a short last block.  A scan that stopped too early
  // -- or skipped a block or its remainder -- would miss (1,0).
  for (const int n : {66, 67, 131}) {
    for (const int w : {63, 64, 65, 128, n - 2, n - 1}) {
      if (w < 3 || w >= n) continue;
      SCOPED_TRACE("n=" + std::to_string(n) + " w=" + std::to_string(w));
      DecaySpace space(n, 16.0);
      space.Set(0, 2, 2.0);
      space.Set(2, 1, 2.0);
      space.Set(1, w, 1.0);
      space.Set(w, 0, 1.0);
      const MetricityResult zeta = ComputeMetricity(space);
      const MetricityResult naive = ComputeMetricityNaive(space);
      EXPECT_EQ(zeta.zeta, naive.zeta);
      EXPECT_EQ(zeta.arg_x, naive.arg_x);
      EXPECT_EQ(zeta.arg_y, naive.arg_y);
      EXPECT_EQ(zeta.arg_z, naive.arg_z);
      EXPECT_NEAR(zeta.zeta, 4.0, 1e-9);
      EXPECT_EQ(zeta.arg_z, w);
    }
  }
}

TEST(PrunedMetricityEquality, PhiBlockPruneMatchesNaiveOnAdversarialSpaces) {
  // Spaces engineered around the block prune's edge: (a) a space where the
  // first (x,z) blocks dominate and everything later prunes, (b) one where
  // the maximum sits in the very last block, so pruning must never skip a
  // winning pair, and (c) ties -- several triplets attaining the same
  // factor, where the naive scan's first-wins witness must survive.
  std::vector<DecaySpace> cases;
  {
    geom::Rng rng(31);
    cases.push_back(spaces::LogUniformSpace(24, 1e6, rng, false));
  }
  {
    DecaySpace space(12);  // uniform: every factor ties at 1/2
    cases.push_back(space);
  }
  {
    DecaySpace space(10, 1.0);
    space.SetSymmetric(8, 9, 1000.0);  // winner lives in the last rows
    cases.push_back(space);
  }
  for (const DecaySpace& space : cases) {
    const PhiResult fast = ComputePhi(space);
    const PhiResult naive = ComputePhiNaive(space);
    EXPECT_EQ(fast.phi_factor, naive.phi_factor);
    EXPECT_EQ(fast.phi, naive.phi);
    EXPECT_EQ(fast.arg_x, naive.arg_x);
    EXPECT_EQ(fast.arg_y, naive.arg_y);
    EXPECT_EQ(fast.arg_z, naive.arg_z);
  }
}

TEST(ZetaPhiTripleTest, ZetaMatchesAsymptoticShape) {
  // zeta(q) ~ log q / log log q within a moderate constant factor.
  const double q = 1e10;
  const DecaySpace space = spaces::ZetaPhiTriple(q);
  const double zeta = Metricity(space);
  const double prediction = std::log(q) / std::log(std::log(q));
  EXPECT_GT(zeta, prediction / 3.0);
  EXPECT_LT(zeta, prediction * 3.0);
}

}  // namespace
}  // namespace decaylib::core
