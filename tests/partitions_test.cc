#include "capacity/partitions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "capacity/baselines.h"
#include "core/decay_space.h"
#include "core/metricity.h"
#include "geom/rng.h"
#include "geom/samplers.h"
#include "sinr/power.h"

namespace decaylib::capacity {
namespace {

struct Instance {
  core::DecaySpace space;
  std::vector<sinr::Link> links;

  Instance(int link_count, double box, double alpha, std::uint64_t seed)
      : space(1) {
    geom::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < link_count; ++i) {
      const geom::Vec2 s{rng.Uniform(0.0, box), rng.Uniform(0.0, box)};
      const double angle = rng.Uniform(0.0, 2.0 * M_PI);
      pts.push_back(s);
      pts.push_back(s + geom::Vec2{rng.Uniform(0.5, 1.2), 0.0}.Rotated(angle));
      links.push_back({2 * i, 2 * i + 1});
    }
    space = core::DecaySpace::Geometric(pts, alpha);
  }
};

void ExpectPartition(const std::vector<std::vector<int>>& classes,
                     std::span<const int> S) {
  std::multiset<int> covered;
  for (const auto& cls : classes) covered.insert(cls.begin(), cls.end());
  EXPECT_EQ(covered, std::multiset<int>(S.begin(), S.end()));
}

TEST(SignalStrengthenTest, ClassesAreQFeasibleAndCountBounded) {
  const Instance inst(30, 20.0, 3.0, 1);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const auto power = sinr::UniformPower(system);
  const sinr::KernelCache kernel(system, power);
  const auto S = GreedyFeasible(kernel, sinr::AllLinks(system));  // 1-feasible
  ASSERT_GE(S.size(), 3u);
  for (const double q : {2.0, 4.0, 8.0}) {
    const auto classes = SignalStrengthen(kernel, S, 1.0, q);
    ExpectPartition(classes, S);
    const auto bound =
        static_cast<std::size_t>(std::ceil(2.0 * q) * std::ceil(2.0 * q));
    EXPECT_LE(classes.size(), bound) << "q=" << q;
    for (const auto& cls : classes) {
      EXPECT_TRUE(system.IsKFeasible(cls, q, power)) << "q=" << q;
    }
  }
}

TEST(SignalStrengthenTest, AlreadyStrongSetStaysWhole) {
  // A set that is already q-feasible fits in few classes (often one).
  const Instance inst(8, 60.0, 3.0, 2);  // widely spread: weak interference
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const auto power = sinr::UniformPower(system);
  const auto all = sinr::AllLinks(system);
  if (system.IsKFeasible(all, 4.0, power)) {
    const auto classes =
        SignalStrengthen(sinr::KernelCache(system, power), all, 4.0, 4.0);
    EXPECT_EQ(classes.size(), 1u);
  }
}

// Lemma B.2: an e^2/beta-feasible set under uniform power is 1/zeta-separated.
class LemmaB2Test : public ::testing::TestWithParam<double> {};

TEST_P(LemmaB2Test, StrongFeasibilityImpliesSeparation) {
  const double alpha = GetParam();
  const Instance inst(30, 25.0, alpha, 3);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const auto power = sinr::UniformPower(system);
  const double zeta = std::max(1.0, core::Metricity(inst.space));
  const double strength = std::exp(2.0) / system.config().beta;
  // Build an e^2/beta-feasible set greedily.
  std::vector<int> S;
  for (int v = 0; v < system.NumLinks(); ++v) {
    S.push_back(v);
    if (!system.IsKFeasible(S, strength, power)) S.pop_back();
  }
  ASSERT_GE(S.size(), 2u);
  EXPECT_TRUE(system.IsSeparatedSet(S, 1.0 / zeta, zeta)) << "alpha=" << alpha;
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, LemmaB2Test,
                         ::testing::Values(2.0, 3.0, 4.0));

TEST(SeparationPartitionTest, ClassesAreSeparated) {
  const Instance inst(40, 18.0, 3.0, 4);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const double zeta = 3.0;
  const auto all = sinr::AllLinks(system);
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  for (const double eta : {1.0, 2.0, 3.0}) {
    const auto classes = SeparationPartition(kernel, all, eta, zeta);
    ExpectPartition(classes, all);
    for (const auto& cls : classes) {
      EXPECT_TRUE(system.IsSeparatedSet(cls, eta, zeta)) << "eta=" << eta;
    }
  }
}

TEST(SeparationPartitionTest, LargerEtaNeedsMoreClasses) {
  const Instance inst(40, 15.0, 3.0, 5);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const auto all = sinr::AllLinks(system);
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto coarse = SeparationPartition(kernel, all, 0.5, 3.0);
  const auto fine = SeparationPartition(kernel, all, 4.0, 3.0);
  EXPECT_LE(coarse.size(), fine.size());
}

TEST(Lemma41Test, FeasibleSetSplitsIntoZetaSeparatedClasses) {
  const Instance inst(30, 20.0, 3.0, 6);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const double zeta = std::max(1.0, core::Metricity(inst.space));
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto S = GreedyFeasible(kernel, sinr::AllLinks(system));
  ASSERT_GE(S.size(), 2u);
  const auto classes = Lemma41Partition(kernel, S, zeta);
  ExpectPartition(classes, S);
  for (const auto& cls : classes) {
    EXPECT_TRUE(system.IsSeparatedSet(cls, zeta, zeta));
  }
}

TEST(Lemma41Test, ClassCountPolynomialInZeta) {
  // The lemma promises O(zeta^{2A'}) classes; on the plane with A' ~ 2 that
  // is O(zeta^4), but the realised constants are small -- sanity-check the
  // count stays far below the trivial |S| bound and grows mildly in alpha.
  std::size_t last = 1;
  for (const double alpha : {2.0, 4.0, 6.0}) {
    const Instance inst(40, 20.0, alpha, 7);
    const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
    const sinr::KernelCache kernel(system, sinr::UniformPower(system));
    const auto S = GreedyFeasible(kernel, sinr::AllLinks(system));
    if (S.size() < 4) continue;
    const double zeta = std::max(1.0, core::Metricity(inst.space));
    const auto classes = Lemma41Partition(kernel, S, zeta);
    EXPECT_LE(classes.size(), S.size());
    last = std::max(last, classes.size());
  }
  SUCCEED() << "largest class count " << last;
}

}  // namespace
}  // namespace decaylib::capacity
