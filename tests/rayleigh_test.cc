#include "sinr/rayleigh.h"

#include <gtest/gtest.h>

#include <cmath>

#include "capacity/baselines.h"
#include "core/decay_space.h"
#include "geom/samplers.h"
#include "sinr/power.h"

namespace decaylib::sinr {
namespace {

struct Fixture {
  core::DecaySpace space;
  std::vector<Link> links;

  Fixture(int n, double box, std::uint64_t seed) : space(1) {
    geom::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
      const geom::Vec2 s{rng.Uniform(0.0, box), rng.Uniform(0.0, box)};
      pts.push_back(s);
      pts.push_back(s + geom::Vec2{1.0, 0.0}.Rotated(rng.Uniform(0.0, 6.28)));
      links.push_back({2 * i, 2 * i + 1});
    }
    space = core::DecaySpace::Geometric(pts, 3.0);
  }
};

TEST(RayleighTest, NoInterferenceNoNoiseAlwaysSucceeds) {
  const Fixture fixture(2, 30.0, 1);
  const LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const PowerAssignment power = UniformPower(system);
  const std::vector<int> alone{0};
  EXPECT_DOUBLE_EQ(RayleighSuccessProbability(system, 0, alone, power), 1.0);
}

TEST(RayleighTest, NoiseOnlyClosedForm) {
  const Fixture fixture(1, 10.0, 2);
  const LinkSystem system(fixture.space, fixture.links, {2.0, 0.01});
  const PowerAssignment power = UniformPower(system);
  const std::vector<int> alone{0};
  const double mu = power[0] / system.LinkDecay(0);
  EXPECT_NEAR(RayleighSuccessProbability(system, 0, alone, power),
              std::exp(-2.0 * 0.01 / mu), 1e-12);
}

TEST(RayleighTest, ClosedFormMatchesMonteCarlo) {
  const Fixture fixture(6, 15.0, 3);
  const LinkSystem system(fixture.space, fixture.links, {1.5, 1e-5});
  const PowerAssignment power = UniformPower(system);
  const auto all = AllLinks(system);
  geom::Rng rng(4);
  for (int v = 0; v < system.NumLinks(); ++v) {
    const double closed = RayleighSuccessProbability(system, v, all, power);
    const double mc =
        RayleighSuccessMonteCarlo(system, v, all, power, 40000, rng);
    EXPECT_NEAR(mc, closed, 0.015) << "link " << v;
  }
}

TEST(RayleighTest, LowerBoundIsALowerBound) {
  const Fixture fixture(8, 12.0, 5);
  const LinkSystem system(fixture.space, fixture.links, {2.0, 1e-6});
  const PowerAssignment power = UniformPower(system);
  const auto all = AllLinks(system);
  for (int v = 0; v < system.NumLinks(); ++v) {
    EXPECT_LE(RayleighSuccessLowerBound(system, v, all, power),
              RayleighSuccessProbability(system, v, all, power) + 1e-12);
  }
}

TEST(RayleighTest, FeasibleSetsKeepConstantSuccessProbability) {
  // The [10] reduction: on a thresholding-feasible set, every link's
  // Rayleigh success probability is at least e^{-(1+o(1)) * a_S(v)} --
  // with a_S(v) <= 1 that is at least ~ e^{-2} accounting for noise.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Fixture fixture(10, 20.0, seed);
    const LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
    const PowerAssignment power = UniformPower(system);
    const auto S = capacity::GreedyFeasible(KernelCache(system, power),
                                            AllLinks(system));
    for (int v : S) {
      const double p = RayleighSuccessProbability(system, v, S, power);
      EXPECT_GE(p, std::exp(-1.0) - 1e-9)
          << "seed " << seed << " link " << v;
    }
  }
}

TEST(RayleighTest, MoreInterferersLowerSuccess) {
  const Fixture fixture(6, 12.0, 7);
  const LinkSystem system(fixture.space, fixture.links, {1.5, 0.0});
  const PowerAssignment power = UniformPower(system);
  const std::vector<int> few{0, 1};
  const std::vector<int> many{0, 1, 2, 3, 4, 5};
  EXPECT_GT(RayleighSuccessProbability(system, 0, few, power),
            RayleighSuccessProbability(system, 0, many, power));
}

}  // namespace
}  // namespace decaylib::sinr
