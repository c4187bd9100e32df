// Failure-injection tests: the public API's DL_CHECK preconditions must
// abort loudly on misuse rather than corrupt state (C++ Core Guidelines I.5:
// state preconditions, and here enforce them).
#include <gtest/gtest.h>

#include "core/decay_space.h"
#include "core/fading.h"
#include "core/metricity.h"
#include "core/numerics.h"
#include "engine/scenario.h"
#include "geom/rng.h"
#include "graph/graph.h"
#include "sinr/link_system.h"
#include "spaces/constructions.h"

namespace decaylib {
namespace {

using DeathTest = ::testing::Test;

TEST(DecaySpaceDeathTest, RejectsNonPositiveDecay) {
  core::DecaySpace space(3);
  EXPECT_DEATH(space.Set(0, 1, 0.0), "positive");
  EXPECT_DEATH(space.Set(0, 1, -2.0), "positive");
}

TEST(DecaySpaceDeathTest, RejectsDiagonalWrites) {
  core::DecaySpace space(3);
  EXPECT_DEATH(space.Set(1, 1, 5.0), "diagonal");
}

TEST(DecaySpaceDeathTest, RejectsOutOfRangeIds) {
  core::DecaySpace space(3);
  EXPECT_DEATH(space.Set(0, 3, 1.0), "range");
  EXPECT_DEATH(space.Set(-1, 0, 1.0), "range");
}

TEST(DecaySpaceDeathTest, RejectsEmptySpace) {
  EXPECT_DEATH(core::DecaySpace(0), "at least one node");
}

TEST(DecaySpaceDeathTest, GeometricRejectsCoincidentPoints) {
  const std::vector<geom::Vec2> pts{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_DEATH(core::DecaySpace::Geometric(pts, 2.0), "coincident");
}

TEST(DecaySpaceDeathTest, CoordinateBackedRejectsCoincidentPoints) {
  const std::vector<geom::Vec2> pts{{0.0, 0.0}, {2.0, 1.0}, {0.0, 0.0}};
  EXPECT_DEATH(core::DecaySpace::CoordinateBacked(pts, 3.0), "coincident");
}

TEST(DecaySpaceDeathTest, RawNeedsADenseSpace) {
  const std::vector<geom::Vec2> pts{{0.0, 0.0}, {2.0, 1.0}};
  const core::DecaySpace space = core::DecaySpace::CoordinateBacked(pts, 3.0);
  EXPECT_DEATH((void)space.Raw(), "dense");
}

TEST(GridPairingDeathTest, RejectsASpaceOfOtherPointsOrAlpha) {
  const std::vector<geom::Vec2> pts{{0.0, 0.0}, {1.0, 0.0}, {5.0, 5.0},
                                    {6.0, 5.0}};
  const core::DecaySpace space = core::DecaySpace::CoordinateBacked(pts, 3.0);
  EXPECT_DEATH(engine::PairLinksByDecayGrid(space, pts, 2.5),
               "own points and alpha");
  std::vector<geom::Vec2> moved = pts;
  moved[3] = {7.0, 5.0};
  EXPECT_DEATH(engine::PairLinksByDecayGrid(space, moved, 3.0),
               "own points and alpha");
}

TEST(QuasiMetricDeathTest, RejectsNonPositiveZeta) {
  const core::DecaySpace space(3);
  EXPECT_DEATH(core::QuasiMetric(space, 0.0), "positive");
}

TEST(NumericsDeathTest, ZetaFunctionNeedsConvergence) {
  EXPECT_DEATH(core::RiemannZeta(1.0), "x > 1");
  EXPECT_DEATH(core::RiemannZeta(0.5), "x > 1");
}

TEST(FadingDeathTest, RejectsBadArguments) {
  const core::DecaySpace space = spaces::UniformSpace(4);
  EXPECT_DEATH(core::FadingValueExact(space, 9, 1.0), "range");
  EXPECT_DEATH(core::FadingValueExact(space, 0, 0.0), "positive");
}

TEST(Theorem2BoundDeathTest, RequiresFadingDimension) {
  EXPECT_DEATH(core::Theorem2Bound(1.0, 1.0), "below 1");
}

TEST(GraphDeathTest, RejectsSelfLoopsAndBadIds) {
  graph::Graph g(3);
  EXPECT_DEATH(g.AddEdge(1, 1), "[Ss]elf");
  EXPECT_DEATH(g.AddEdge(0, 5), "range");
}

TEST(LinkSystemDeathTest, RejectsDegenerateLinks) {
  const core::DecaySpace space = spaces::UniformSpace(4);
  EXPECT_DEATH(sinr::LinkSystem(space, {{0, 0}}, {1.0, 0.0}), "differ");
  EXPECT_DEATH(sinr::LinkSystem(space, {{0, 7}}, {1.0, 0.0}), "range");
}

TEST(LinkSystemDeathTest, RejectsSubUnitBeta) {
  const core::DecaySpace space = spaces::UniformSpace(4);
  EXPECT_DEATH(sinr::LinkSystem(space, {{0, 1}}, {0.5, 0.0}), "beta");
}

TEST(LinkSystemDeathTest, NoiseFactorNeedsNoiseMargin) {
  core::DecaySpace space(2, 10.0);
  const sinr::LinkSystem system(space, {{0, 1}}, {2.0, 1.0});
  const sinr::PowerAssignment power{1.0};  // signal 0.1 < beta * noise = 2
  EXPECT_DEATH(system.NoiseFactor(0, power), "threshold");
}

TEST(StarSpaceDeathTest, RejectsDegenerateParameters) {
  EXPECT_DEATH(spaces::StarSpace(0, 1.0), "leaf");
  EXPECT_DEATH(spaces::StarSpace(3, 0.0), "positive");
}

TEST(WelzlSpaceDeathTest, RejectsLargeEps) {
  EXPECT_DEATH(spaces::WelzlSpace(4, 0.3), "eps");
}

}  // namespace
}  // namespace decaylib
