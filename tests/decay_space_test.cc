#include "core/decay_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/metricity.h"
#include "geom/point.h"
#include "geom/rng.h"
#include "geom/samplers.h"

namespace decaylib::core {
namespace {

TEST(DecaySpaceTest, DefaultFillIsUniform) {
  const DecaySpace space(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(space(i, j), i == j ? 0.0 : 1.0);
    }
  }
}

TEST(DecaySpaceTest, SetAndGetAsymmetric) {
  DecaySpace space(3);
  space.Set(0, 1, 5.0);
  space.Set(1, 0, 7.0);
  EXPECT_DOUBLE_EQ(space(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(space(1, 0), 7.0);
  EXPECT_FALSE(space.IsSymmetric());
}

TEST(DecaySpaceTest, SetSymmetric) {
  DecaySpace space(3);
  space.SetSymmetric(0, 2, 4.0);
  EXPECT_DOUBLE_EQ(space(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(space(2, 0), 4.0);
  EXPECT_TRUE(space.IsSymmetric());
}

TEST(DecaySpaceTest, FromMatrixIgnoresDiagonal) {
  const std::vector<std::vector<double>> m{
      {9.0, 1.0, 2.0}, {1.0, 9.0, 3.0}, {2.0, 3.0, 9.0}};
  const DecaySpace space = DecaySpace::FromMatrix(m);
  EXPECT_DOUBLE_EQ(space(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(space(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(space(1, 2), 3.0);
}

TEST(DecaySpaceTest, GeometricMatchesDistancePower) {
  const std::vector<geom::Vec2> pts{{0.0, 0.0}, {3.0, 4.0}, {6.0, 8.0}};
  const DecaySpace space = DecaySpace::Geometric(pts, 2.0);
  EXPECT_DOUBLE_EQ(space(0, 1), 25.0);
  EXPECT_DOUBLE_EQ(space(0, 2), 100.0);
  EXPECT_DOUBLE_EQ(space(1, 2), 25.0);
  EXPECT_TRUE(space.IsSymmetric());
}

TEST(DecaySpaceTest, FromDistancePower) {
  const std::vector<std::vector<double>> d{{0.0, 2.0}, {2.0, 0.0}};
  const DecaySpace space = DecaySpace::FromDistancePower(d, 3.0);
  EXPECT_DOUBLE_EQ(space(0, 1), 8.0);
}

TEST(DecaySpaceTest, MinMaxSpread) {
  DecaySpace space(3);
  space.SetSymmetric(0, 1, 2.0);
  space.SetSymmetric(0, 2, 8.0);
  space.SetSymmetric(1, 2, 4.0);
  EXPECT_DOUBLE_EQ(space.MinDecay(), 2.0);
  EXPECT_DOUBLE_EQ(space.MaxDecay(), 8.0);
  EXPECT_DOUBLE_EQ(space.DecaySpread(), 4.0);
}

TEST(DecaySpaceTest, ValidatePassesOnGoodSpace) {
  DecaySpace space(3);
  EXPECT_FALSE(space.Validate().has_value());
}

TEST(DecaySpaceTest, ScaledMultipliesAllDecays) {
  DecaySpace space(2);
  space.SetSymmetric(0, 1, 3.0);
  const DecaySpace scaled = space.Scaled(2.0);
  EXPECT_DOUBLE_EQ(scaled(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(scaled(0, 0), 0.0);
}

TEST(DecaySpaceTest, SymmetrizationVariants) {
  DecaySpace space(2);
  space.Set(0, 1, 4.0);
  space.Set(1, 0, 9.0);
  EXPECT_DOUBLE_EQ(space.SymmetrizedMin()(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(space.SymmetrizedMax()(0, 1), 9.0);
  EXPECT_DOUBLE_EQ(space.SymmetrizedGeomMean()(0, 1), 6.0);
  EXPECT_TRUE(space.SymmetrizedGeomMean().IsSymmetric());
}

TEST(DecaySpaceTest, SubspacePreservesDecays) {
  DecaySpace space(4);
  space.SetSymmetric(1, 3, 11.0);
  const std::vector<int> nodes{3, 1};
  const DecaySpace sub = space.Subspace(nodes);
  EXPECT_EQ(sub.size(), 2);
  EXPECT_DOUBLE_EQ(sub(0, 1), 11.0);  // (3, 1) in the original
}

TEST(DecaySpaceTest, IsSymmetricWithTolerance) {
  DecaySpace space(2);
  space.Set(0, 1, 1.0);
  space.Set(1, 0, 1.0 + 1e-12);
  EXPECT_FALSE(space.IsSymmetric(0.0));
  EXPECT_TRUE(space.IsSymmetric(1e-9));
}

TEST(QuasiMetricTest, GeometricSpaceRecoversDistances) {
  const std::vector<geom::Vec2> pts{{0.0, 0.0}, {3.0, 4.0}, {1.0, 1.0}};
  const double alpha = 3.5;
  const DecaySpace space = DecaySpace::Geometric(pts, alpha);
  const QuasiMetric d(space, alpha);
  EXPECT_NEAR(d(0, 1), 5.0, 1e-9);
  EXPECT_NEAR(d(0, 2), std::sqrt(2.0), 1e-9);
  EXPECT_DOUBLE_EQ(d(1, 1), 0.0);
}

TEST(QuasiMetricTest, TriangleHoldsAtMetricity) {
  // Any space: the quasi-metric built with zeta = metricity satisfies the
  // triangle inequality by definition.
  DecaySpace space(3);
  space.SetSymmetric(0, 1, 1.0);
  space.SetSymmetric(1, 2, 1.0);
  space.SetSymmetric(0, 2, 100.0);
  const double zeta = Metricity(space);
  ASSERT_GT(zeta, 1.0);
  const QuasiMetric d(space, zeta);
  EXPECT_LE(d.MaxTriangleViolation(), 1e-6);
}

TEST(QuasiMetricTest, TriangleViolatedBelowMetricity) {
  DecaySpace space(3);
  space.SetSymmetric(0, 1, 1.0);
  space.SetSymmetric(1, 2, 1.0);
  space.SetSymmetric(0, 2, 100.0);
  const double zeta = Metricity(space);
  const QuasiMetric d(space, zeta * 0.5);
  EXPECT_GT(d.MaxTriangleViolation(), 0.0);
}

TEST(QuasiMetricTest, MatrixMatchesOperator) {
  DecaySpace space(3);
  space.SetSymmetric(0, 1, 2.0);
  space.SetSymmetric(1, 2, 3.0);
  space.SetSymmetric(0, 2, 4.0);
  const QuasiMetric d(space, 2.0);
  const auto m = d.Matrix();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                       d(i, j));
    }
  }
}

// --- coordinate-backed representation ---------------------------------------

std::vector<geom::Vec2> RandomPoints(std::uint64_t seed, int n) {
  geom::Rng rng(seed);
  // Negative coordinates too: the mirrored fill relies on a - b == -(b - a).
  std::vector<geom::Vec2> pts = geom::SampleUniform(n, 20.0, 20.0, rng);
  for (geom::Vec2& p : pts) p = p - geom::Vec2{10.0, 10.0};
  return pts;
}

// Every entry of `space` equals the one direct evaluation of that ordered
// pair, bit for bit.
void ExpectDirectGeometricEntries(const DecaySpace& space,
                                  const std::vector<geom::Vec2>& pts,
                                  double alpha) {
  const int n = static_cast<int>(pts.size());
  ASSERT_EQ(space.size(), n);
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      const double want =
          p == q ? 0.0
                 : geom::GeometricDecay(pts[static_cast<std::size_t>(p)],
                                        pts[static_cast<std::size_t>(q)],
                                        alpha);
      ASSERT_EQ(space(p, q), want) << p << ", " << q;
    }
  }
}

TEST(CoordinateBackedTest, MirroredGeometricFillIsBitExact) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<geom::Vec2> pts = RandomPoints(seed, 40);
    for (const double alpha : {2.0, 2.7, 3.0, 4.5}) {
      const DecaySpace dense = DecaySpace::Geometric(pts, alpha);
      EXPECT_FALSE(dense.IsCoordinateBacked());
      ExpectDirectGeometricEntries(dense, pts, alpha);
      EXPECT_TRUE(dense.IsSymmetric());
    }
  }
}

TEST(CoordinateBackedTest, AgreesWithDenseGeometricEntryForEntry) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<geom::Vec2> pts = RandomPoints(seed, 40);
    for (const double alpha : {2.0, 3.0, 3.5}) {
      const DecaySpace coords = DecaySpace::CoordinateBacked(pts, alpha);
      ASSERT_TRUE(coords.IsCoordinateBacked());
      EXPECT_EQ(coords.alpha(), alpha);
      EXPECT_EQ(std::vector<geom::Vec2>(coords.points().begin(),
                                        coords.points().end()),
                pts);
      ExpectDirectGeometricEntries(coords, pts, alpha);

      const DecaySpace dense = DecaySpace::Geometric(pts, alpha);
      EXPECT_EQ(coords.MinDecay(), dense.MinDecay());
      EXPECT_EQ(coords.MaxDecay(), dense.MaxDecay());
      EXPECT_FALSE(coords.Validate().has_value());

      const DecaySpace materialized = coords.Materialized();
      EXPECT_FALSE(materialized.IsCoordinateBacked());
      EXPECT_TRUE(coords.IsCoordinateBacked());  // the source is untouched
      const std::span<const double> a = materialized.Raw();
      const std::span<const double> b = dense.Raw();
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
  }
}

TEST(CoordinateBackedTest, SetDensifiesAndKeepsEveryOtherEntry) {
  const std::vector<geom::Vec2> pts = RandomPoints(7, 12);
  const DecaySpace dense = DecaySpace::Geometric(pts, 3.0);
  DecaySpace space = DecaySpace::CoordinateBacked(pts, 3.0);
  space.Set(2, 5, 123.0);
  EXPECT_FALSE(space.IsCoordinateBacked());
  for (int p = 0; p < space.size(); ++p) {
    for (int q = 0; q < space.size(); ++q) {
      EXPECT_EQ(space(p, q), p == 2 && q == 5 ? 123.0 : dense(p, q));
    }
  }
  DecaySpace sym = DecaySpace::CoordinateBacked(pts, 3.0);
  sym.SetSymmetric(0, 1, dense(0, 1));  // rewriting the same value
  const std::span<const double> a = sym.Raw();
  const std::span<const double> b = dense.Raw();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
}

TEST(CoordinateBackedTest, MemoryIsLinearInNodes) {
  const std::vector<geom::Vec2> pts = RandomPoints(3, 200);
  const DecaySpace coords = DecaySpace::CoordinateBacked(pts, 3.0);
  EXPECT_EQ(coords.MemoryBytes(),
            static_cast<long long>(pts.size() * sizeof(geom::Vec2)));
  EXPECT_EQ(coords.Materialized().MemoryBytes(),
            static_cast<long long>(pts.size() * pts.size() * sizeof(double)));
  EXPECT_EQ(DecaySpace(10).MemoryBytes(),
            static_cast<long long>(100 * sizeof(double)));
}

TEST(CoordinateBackedTest, MetricityAgreesWithDenseSpace) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<geom::Vec2> pts = RandomPoints(seed, 70);
    const DecaySpace coords = DecaySpace::CoordinateBacked(pts, 3.0);
    const DecaySpace dense = DecaySpace::Geometric(pts, 3.0);
    const MetricityResult zc = ComputeMetricity(coords);
    const MetricityResult zd = ComputeMetricity(dense);
    EXPECT_EQ(zc.zeta, zd.zeta);
    EXPECT_EQ(zc.arg_x, zd.arg_x);
    EXPECT_EQ(zc.arg_y, zd.arg_y);
    EXPECT_EQ(zc.arg_z, zd.arg_z);
    const PhiResult pc = ComputePhi(coords);
    const PhiResult pd = ComputePhi(dense);
    EXPECT_EQ(pc.phi_factor, pd.phi_factor);
    EXPECT_EQ(pc.arg_x, pd.arg_x);
    EXPECT_EQ(pc.arg_y, pd.arg_y);
    EXPECT_EQ(pc.arg_z, pd.arg_z);
  }
}

}  // namespace
}  // namespace decaylib::core
