// Property tests for the cached SINR kernel layer (sinr/kernel.h).
//
// The kernel's contract is bit-for-bit agreement with the naive LinkSystem
// methods: every cached affectance, noise factor, distance, aggregate sum,
// feasibility verdict and separation check must equal the naive result
// exactly (EXPECT_EQ on doubles, not EXPECT_NEAR).  The sweep covers
// symmetric and asymmetric decay spaces, zero and positive noise, and
// uniform and non-uniform power -- and, at the algorithm level, that the
// cached RunAlgorithm1 reproduces the naive reference's output verbatim.
#include "sinr/kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "core/decay_space.h"
#include "geom/rng.h"
#include "geom/samplers.h"
#include "sinr/power.h"
#include "spaces/samplers.h"

namespace decaylib::sinr {
namespace {

struct Instance {
  std::string name;
  core::DecaySpace space;
  std::vector<Link> links;
  SinrConfig config;
  PowerAssignment power;
};

std::vector<Link> PairedLinks(int count) {
  std::vector<Link> links;
  links.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) links.push_back({2 * i, 2 * i + 1});
  return links;
}

// The four instance families of the bit-exactness sweep: {symmetric,
// asymmetric} x {noise 0, noise > 0} x {uniform, non-uniform power}.  The
// noisy instances deliberately leave some links unable to overcome noise.
std::vector<Instance> MakeInstances(std::uint64_t seed, int link_count) {
  std::vector<Instance> instances;
  {
    geom::Rng rng(seed);
    const auto pts = geom::SampleUniform(2 * link_count, 14.0, 14.0, rng);
    core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
    Instance inst{"geometric/noiseless/uniform", std::move(space),
                  PairedLinks(link_count), SinrConfig{1.5, 0.0}, {}};
    const LinkSystem system(inst.space, inst.links, inst.config);
    inst.power = UniformPower(system);
    instances.push_back(std::move(inst));
  }
  {
    geom::Rng rng(seed + 1);
    const auto pts = geom::SampleUniform(2 * link_count, 10.0, 10.0, rng);
    core::DecaySpace space = core::DecaySpace::Geometric(pts, 2.5);
    Instance inst{"geometric/noisy/uniform", std::move(space),
                  PairedLinks(link_count), SinrConfig{1.0, 0.05}, {}};
    const LinkSystem system(inst.space, inst.links, inst.config);
    inst.power = UniformPower(system);  // some links fail the noise margin
    instances.push_back(std::move(inst));
  }
  {
    geom::Rng rng(seed + 2);
    core::DecaySpace space =
        spaces::LogUniformSpace(2 * link_count, 200.0, rng, /*symmetric=*/false);
    Instance inst{"loguniform/noiseless/powerlaw", std::move(space),
                  PairedLinks(link_count), SinrConfig{2.0, 0.0}, {}};
    const LinkSystem system(inst.space, inst.links, inst.config);
    inst.power = PowerLaw(system, 0.6);
    instances.push_back(std::move(inst));
  }
  {
    geom::Rng rng(seed + 3);
    const auto pts = geom::SampleUniform(2 * link_count, 12.0, 12.0, rng);
    geom::Rng shadow(seed + 4);
    core::DecaySpace space =
        spaces::ShadowedGeometric(pts, 3.0, 6.0, shadow, /*symmetric=*/false);
    Instance inst{"shadowed-asymmetric/noisy/powerlaw", std::move(space),
                  PairedLinks(link_count), SinrConfig{1.2, 0.01}, {}};
    const LinkSystem system(inst.space, inst.links, inst.config);
    inst.power = ScaledToOvercomeNoise(system, PowerLaw(system, 0.4), 3.0);
    instances.push_back(std::move(inst));
  }
  return instances;
}

std::vector<int> RandomSubset(int n, double p, geom::Rng& rng) {
  std::vector<int> S;
  for (int v = 0; v < n; ++v) {
    if (rng.Chance(p)) S.push_back(v);
  }
  return S;
}

class KernelBitExactness : public ::testing::TestWithParam<int> {};

TEST_P(KernelBitExactness, PairwiseEntriesMatchNaive) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const Instance& inst : MakeInstances(seed, 10)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache kernel(system, inst.power);
    const int n = system.NumLinks();
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(kernel.LinkDecay(v), system.LinkDecay(v));
      EXPECT_EQ(kernel.CanOvercomeNoise(v),
                system.CanOvercomeNoise(v, inst.power));
      if (!kernel.CanOvercomeNoise(v)) continue;
      EXPECT_EQ(kernel.NoiseFactor(v), system.NoiseFactor(v, inst.power));
      for (int w = 0; w < n; ++w) {
        EXPECT_EQ(kernel.AffectanceRaw(w, v),
                  system.AffectanceRaw(w, v, inst.power));
        EXPECT_EQ(kernel.Affectance(w, v),
                  system.Affectance(w, v, inst.power));
      }
    }
    for (const double zeta : {1.0, 2.2, 3.0}) {
      for (int v = 0; v < n; ++v) {
        EXPECT_EQ(kernel.LinkLength(v, zeta), system.LinkLength(v, zeta));
        for (int w = 0; w < n; ++w) {
          if (w == v) continue;
          // pow of the min endpoint decay == min of the endpoint pows.
          EXPECT_EQ(kernel.LinkDistance(v, w, zeta),
                    system.LinkDistance(v, w, zeta));
        }
      }
    }
  }
}

TEST_P(KernelBitExactness, AggregateQueriesMatchNaive) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const Instance& inst : MakeInstances(seed, 12)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache kernel(system, inst.power);
    const int n = system.NumLinks();
    geom::Rng rng(seed * 977 + 5);
    for (int trial = 0; trial < 8; ++trial) {
      // S may contain links that cannot overcome noise (IsFeasible must
      // reject such sets); S_ok keeps only noise-capable links, the only
      // ones the naive OutAffectance / MaxInAffectance accept as targets.
      const std::vector<int> S = RandomSubset(n, 0.55, rng);
      std::vector<int> S_ok;
      for (int v : S) {
        if (kernel.CanOvercomeNoise(v)) S_ok.push_back(v);
      }
      for (int v = 0; v < n; ++v) {
        if (!kernel.CanOvercomeNoise(v)) continue;
        EXPECT_EQ(kernel.InAffectance(S, v),
                  system.InAffectance(S, v, inst.power));
        EXPECT_EQ(kernel.OutAffectance(v, S_ok),
                  system.OutAffectance(v, S_ok, inst.power));
      }
      EXPECT_EQ(kernel.IsFeasible(S), system.IsFeasible(S, inst.power));
      EXPECT_EQ(kernel.IsKFeasible(S, 2.5),
                system.IsKFeasible(S, 2.5, inst.power));
      EXPECT_EQ(kernel.MaxInAffectance(S_ok),
                system.MaxInAffectance(S_ok, inst.power));
      for (const double zeta : {1.7, 3.0}) {
        const double eta = zeta / 2.0;
        for (int v = 0; v < n; ++v) {
          EXPECT_EQ(kernel.IsSeparatedFrom(v, S, eta, zeta),
                    system.IsSeparatedFrom(v, S, eta, zeta));
        }
      }
    }
  }
}

TEST_P(KernelBitExactness, SeparationOracleMatchesNaivePredicates) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const Instance& inst : MakeInstances(seed, 12)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache kernel(system, inst.power);
    const int n = system.NumLinks();
    for (const double zeta : {1.3, 2.0, 3.5}) {
      const SeparationOracle oracle(kernel, zeta / 2.0, zeta);
      geom::Rng rng(seed * 31 + static_cast<std::uint64_t>(zeta * 10));
      for (int trial = 0; trial < 6; ++trial) {
        const std::vector<int> L = RandomSubset(n, 0.5, rng);
        for (int v = 0; v < n; ++v) {
          EXPECT_EQ(oracle.IsSeparatedFrom(v, L),
                    system.IsSeparatedFrom(v, L, zeta / 2.0, zeta));
        }
      }
    }
  }
}

TEST_P(KernelBitExactness, AccumulatorMatchesNaivePrefixSums) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const Instance& inst : MakeInstances(seed, 12)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache kernel(system, inst.power);
    const int n = system.NumLinks();
    geom::Rng rng(seed * 131 + 7);
    AffectanceAccumulator acc(kernel);
    // Only noise-capable links join the set, as in every admission loop
    // (the naive OutAffectance aborts on targets that cannot overcome).
    std::vector<int> order;
    for (int v = 0; v < n; ++v) {
      if (kernel.CanOvercomeNoise(v)) order.push_back(v);
    }
    rng.Shuffle(order);
    std::vector<int> members;
    for (int v : order) {
      acc.Add(v);
      members.push_back(v);
      for (int u = 0; u < n; ++u) {
        if (!kernel.CanOvercomeNoise(u)) continue;
        // Insertion order == naive iteration order: sums agree exactly.
        EXPECT_EQ(acc.In(u), system.InAffectance(members, u, inst.power));
        EXPECT_EQ(acc.Out(u), system.OutAffectance(u, members, inst.power));
      }
    }
    // Remove is a floating-point subtraction, not an exact undo: compare
    // against the fresh sum with a tolerance.
    while (members.size() > order.size() / 2) {
      const int victim = members[members.size() / 2];
      acc.Remove(victim);
      members.erase(members.begin() +
                    static_cast<std::ptrdiff_t>(members.size() / 2));
    }
    EXPECT_EQ(acc.members().size(), members.size());
    for (int u = 0; u < n; ++u) {
      if (!kernel.CanOvercomeNoise(u)) continue;
      EXPECT_NEAR(acc.In(u), kernel.InAffectance(acc.members(), u), 1e-9);
    }
  }
}

TEST_P(KernelBitExactness, TiledBuildBitIdenticalToScalar) {
  // The fused tiled build is the default; the scalar path is the reference
  // oracle.  Every matrix entry must be the identical double across all
  // four instance families (asymmetric spaces and non-uniform powers
  // included), or the tiling reordered a floating-point operation.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const Instance& inst : MakeInstances(seed, 12)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache scalar(system, inst.power, KernelBuildPath::kScalar);
    const KernelCache tiled(system, inst.power, KernelBuildPath::kTiled);
    const int n = system.NumLinks();
    ASSERT_EQ(scalar.NumLinks(), n);
    ASSERT_EQ(tiled.NumLinks(), n);
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(tiled.LinkDecay(v), scalar.LinkDecay(v));
      EXPECT_EQ(tiled.CanOvercomeNoise(v), scalar.CanOvercomeNoise(v));
      if (tiled.CanOvercomeNoise(v)) {
        EXPECT_EQ(tiled.NoiseFactor(v), scalar.NoiseFactor(v));
      }
      for (int w = 0; w < n; ++w) {
        EXPECT_EQ(tiled.AffectanceRaw(w, v), scalar.AffectanceRaw(w, v));
        EXPECT_EQ(tiled.CrossDecay(w, v), scalar.CrossDecay(w, v));
        EXPECT_EQ(tiled.MinPairDecay(v, w), scalar.MinPairDecay(v, w));
        if (tiled.CanOvercomeNoise(v)) {
          EXPECT_EQ(tiled.Affectance(w, v), scalar.Affectance(w, v));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelBitExactness, ::testing::Range(1, 9));

// --- algorithm-level agreement ---------------------------------------------

class CachedAlgorithmAgreement : public ::testing::TestWithParam<int> {};

TEST_P(CachedAlgorithmAgreement, RunAlgorithm1MatchesNaive) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  geom::Rng rng(seed);
  for (const double alpha : {2.0, 3.0, 4.0}) {
    for (const double box : {8.0, 25.0, 80.0}) {
      const auto pts = geom::SampleUniform(48, box, box, rng);
      const core::DecaySpace space = core::DecaySpace::Geometric(pts, alpha);
      const LinkSystem system(space, PairedLinks(24), {1.0, 1e-4});
      const double zeta = alpha;
      const auto cached = capacity::RunAlgorithm1(system, zeta);
      const auto naive = capacity::RunAlgorithm1Naive(system, zeta);
      EXPECT_EQ(cached.admitted, naive.admitted)
          << "alpha=" << alpha << " box=" << box;
      EXPECT_EQ(cached.selected, naive.selected)
          << "alpha=" << alpha << " box=" << box;
    }
  }
}

TEST_P(CachedAlgorithmAgreement, GreedyFeasibleMatchesNaiveReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  geom::Rng rng(seed * 7 + 3);
  const auto pts = geom::SampleUniform(40, 20.0, 20.0, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
  const LinkSystem system(space, PairedLinks(20), {1.0, 0.0});
  const PowerAssignment power = UniformPower(system);

  // Naive reference: the pre-kernel push-IsFeasible-pop loop.
  std::vector<int> order = system.OrderByDecay();
  std::vector<int> reference;
  for (int v : order) {
    if (!system.CanOvercomeNoise(v, power)) continue;
    reference.push_back(v);
    if (!system.IsFeasible(reference, power)) reference.pop_back();
  }

  EXPECT_EQ(capacity::GreedyFeasible(system), reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedAlgorithmAgreement,
                         ::testing::Range(1, 7));

}  // namespace
}  // namespace decaylib::sinr
