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

#include <algorithm>
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

// Coordinate-backed instances.  Over these the separation verdict
// (SeparationTest) decides on squared distances before any pow, so the
// link sets are chosen to put pairs on both sides of its certification
// radii and between them: uniform random points, an integer lattice (exact
// distance ties), links sharing endpoints (zero cross and leg distances),
// and a near tie whose sender-sender leg is the longer by NormSq but the
// shorter by pow(hypot).
std::vector<Instance> MakeCoordinateInstances(std::uint64_t seed,
                                              int link_count) {
  std::vector<Instance> instances;
  const auto add = [&](std::string name, std::vector<geom::Vec2> pts,
                       double alpha, std::vector<Link> links,
                       SinrConfig config, double tau) {
    Instance inst{std::move(name),
                  core::DecaySpace::CoordinateBacked(pts, alpha),
                  std::move(links), config, {}};
    const LinkSystem system(inst.space, inst.links, inst.config);
    inst.power = tau == 0.0 ? UniformPower(system) : PowerLaw(system, tau);
    instances.push_back(std::move(inst));
  };
  {
    geom::Rng rng(seed + 5);
    add("coords/uniform", geom::SampleUniform(2 * link_count, 14.0, 14.0, rng),
        3.0, PairedLinks(link_count), SinrConfig{1.5, 0.0}, 0.0);
  }
  {
    // A 5 x 5 lattice, paired at random: integer squared distances collide.
    geom::Rng rng(seed + 6);
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < 25; ++i) pts.push_back({i % 5 * 1.0, i / 5 * 1.0});
    std::vector<int> order(pts.size());
    for (int i = 0; i < 25; ++i) order[static_cast<std::size_t>(i)] = i;
    rng.Shuffle(order);
    std::vector<Link> links;
    for (std::size_t i = 0; i + 1 < order.size(); i += 2) {
      links.push_back({order[i], order[i + 1]});
    }
    add("coords/lattice", std::move(pts), 2.5, std::move(links),
        SinrConfig{1.0, 0.01}, 0.5);
  }
  {
    // A chain (r_v == s_{v+1}) and a star sharing the chain's first sender.
    geom::Rng rng(seed + 7);
    std::vector<Link> links;
    for (int i = 0; i < link_count / 2; ++i) links.push_back({i, i + 1});
    for (int j = link_count / 2 + 1; j <= link_count; ++j) {
      links.push_back({0, j});
    }
    add("coords/shared-endpoint",
        geom::SampleUniform(link_count + 1, 14.0, 14.0, rng), 3.0,
        std::move(links), SinrConfig{1.0, 0.0}, 0.0);
  }
  {
    // Link 0 runs from the origin; its sender-sender leg to link 1 (length
    // |leg|) ties the cross leg s_0 -> r_1 (length |c|) to rounding: leg is
    // a rotation of c with NormSq(leg) > NormSq(c) yet a smaller decay.
    geom::Rng rng(seed + 8);
    const geom::Vec2 origin{0.0, 0.0};
    for (int trial = 0; trial < 100000; ++trial) {
      const geom::Vec2 c{rng.Uniform(1.0, 10.0), rng.Uniform(1.0, 10.0)};
      const geom::Vec2 leg = c.Rotated(rng.Uniform(0.0, 1.0));
      if (leg.NormSq() > c.NormSq() &&
          geom::GeometricDecay(origin, leg, 3.0) <
              geom::GeometricDecay(origin, c, 3.0)) {
        add("coords/near-tie", {origin, {-40.0, -40.0}, leg, c}, 3.0,
            {{0, 1}, {2, 3}}, SinrConfig{1.0, 0.0}, 0.0);
        break;
      }
    }
    EXPECT_EQ(instances.back().name, "coords/near-tie");
  }
  return instances;
}

// The min endpoint decay of (l_v, l_w) straight from the space: the naive
// four-way min the separation verdict decides on.
double NaiveMinEndpointDecay(const LinkSystem& system, int v, int w) {
  const core::DecaySpace& f = system.space();
  const Link& lv = system.link(v);
  const Link& lw = system.link(w);
  const double sv_rw = f(lv.sender, lw.receiver);
  const double sw_rv = f(lw.sender, lv.receiver);
  const double sv_sw = f(lv.sender, lw.sender);
  const double rv_rw = f(lv.receiver, lw.receiver);
  return std::min(std::min(sv_rw, sw_rv), std::min(sv_sw, rv_rw));
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
    // The separation verdict's guard-band fallback takes one pow of the
    // min endpoint decay: pow of the min == min of the endpoint pows, so it
    // reproduces the naive lengths and distances.
    for (const double zeta : {1.0, 2.2, 3.0}) {
      for (int v = 0; v < n; ++v) {
        EXPECT_EQ(std::pow(kernel.LinkDecay(v), 1.0 / zeta),
                  system.LinkLength(v, zeta));
        for (int w = 0; w < n; ++w) {
          if (w == v) continue;
          EXPECT_EQ(std::pow(NaiveMinEndpointDecay(system, v, w), 1.0 / zeta),
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
      // reject such sets).
      const std::vector<int> S = RandomSubset(n, 0.55, rng);
      // The accumulator's sums over S, added in S order, are the naive
      // in-affectance sums; its raw sums decide K-feasibility as the naive
      // IsKFeasible does.
      AffectanceAccumulator acc(kernel);
      for (int w : S) acc.Add(w);
      bool k_feasible = true;
      for (int v = 0; v < n; ++v) {
        if (!kernel.CanOvercomeNoise(v)) continue;
        EXPECT_EQ(acc.In(v), system.InAffectance(S, v, inst.power));
      }
      for (int v : S) {
        if (!kernel.CanOvercomeNoise(v) || acc.InRaw(v) > 1.0 / 2.5) {
          k_feasible = false;
        }
      }
      EXPECT_EQ(kernel.IsFeasible(S), system.IsFeasible(S, inst.power));
      EXPECT_EQ(k_feasible, system.IsKFeasible(S, 2.5, inst.power));
      // A random subset is almost always infeasible, whichever way its
      // sums run; a set grown link by link sits at the threshold, where
      // reading a_v(w) for a_w(v) flips verdicts.
      std::vector<int> order = AllLinks(system);
      rng.Shuffle(order);
      std::vector<int> grown;
      for (int v : order) {
        grown.push_back(v);
        const bool feasible = system.IsFeasible(grown, inst.power);
        EXPECT_EQ(kernel.IsFeasible(grown), feasible);
        if (!feasible) grown.pop_back();
      }
    }
  }
}

// Every instance family: the dense ones (matrix form of the separation
// verdict) and the coordinate-backed ones (coordinate form).
std::vector<Instance> AllInstances(std::uint64_t seed, int link_count) {
  std::vector<Instance> instances = MakeInstances(seed, link_count);
  for (Instance& inst : MakeCoordinateInstances(seed, link_count)) {
    instances.push_back(std::move(inst));
  }
  return instances;
}

TEST_P(KernelBitExactness, SeparationOracleMatchesNaivePredicates) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const Instance& inst : AllInstances(seed, 12)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache kernel(system, inst.power, KernelSlabs::kNone);
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

TEST_P(KernelBitExactness, ConflictMaxLengthMatchesNaive) {
  // The separation partition's conflict test on every ordered pair of the
  // dense, coordinate-backed and near-tie instances, at Algorithm 1's eta
  // and at eta = 1, whose threshold is the longer link's own decay, which
  // lattice distances tie exactly.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  int conflicts = 0;
  int clear = 0;
  for (const Instance& inst : AllInstances(seed, 12)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache kernel(system, inst.power, KernelSlabs::kNone);
    const int n = system.NumLinks();
    for (const double zeta : {1.3, 3.0}) {
      for (const double eta : {zeta / 2.0, 1.0}) {
        const SeparationOracle oracle(kernel, eta, zeta);
        for (int v = 0; v < n; ++v) {
          for (int w = 0; w < n; ++w) {
            if (w == v) continue;
            const bool naive =
                system.LinkDistance(v, w, zeta) <
                eta * std::max(system.LinkLength(v, zeta),
                               system.LinkLength(w, zeta));
            EXPECT_EQ(oracle.ConflictMaxLength(v, w), naive)
                << "eta " << eta << " zeta " << zeta << " pair " << v << ","
                << w;
            ++(naive ? conflicts : clear);
          }
        }
      }
    }
  }
  EXPECT_GT(conflicts, 0);
  EXPECT_GT(clear, 0);
}

TEST_P(KernelBitExactness, AccumulatorMatchesNaivePrefixSums) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  int budget_within = 0;
  int budget_over = 0;
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
        // The budget stops its out-fold early but decides as the full sum.
        if (!acc.Contains(u)) {
          const bool within = acc.Out(u) + acc.In(u) <= 0.5;
          EXPECT_EQ(acc.BudgetWithinHalf(u), within) << "link " << u;
          ++(within ? budget_within : budget_over);
        }
      }
    }
    EXPECT_EQ(acc.members(), members);
  }
  // The sets grow past the budget: both verdicts occur.
  EXPECT_GT(budget_within, 0);
  EXPECT_GT(budget_over, 0);
}

TEST_P(KernelBitExactness, EntriesMatchNaiveOnEveryRepresentation) {
  // Every matrix entry against the naive LinkSystem methods, over dense
  // spaces (asymmetric ones and non-uniform powers included) and over
  // coordinate-backed ones.  Over the coordinate-backed ones every pair's
  // separation verdict is checked too, and counted by the branch of the
  // shared SeparationTest that decides it -- the min endpoint NormSq above
  // its radii (certified separated), below them (certified too close), or
  // between them (exact legs) -- and each branch must occur.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  long long separated = 0, too_close = 0, exact = 0;
  for (const Instance& inst : AllInstances(seed, 12)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache kernel(system, inst.power);
    const int n = system.NumLinks();
    ASSERT_EQ(kernel.NumLinks(), n);
    for (int v = 0; v < n; ++v) {
      // Column v of the affectance matrix, read back through a one-member
      // accumulator: Out(w) folds the single entry a_w(v), clamped.
      AffectanceAccumulator acc(kernel);
      acc.Add(v);
      const bool overcomes = system.CanOvercomeNoise(v, inst.power);
      for (int w = 0; w < n; ++w) {
        EXPECT_EQ(kernel.CrossDecay(w, v), system.CrossDecay(w, v));
        const double naive =
            overcomes ? system.AffectanceRaw(w, v, inst.power) : 0.0;
        EXPECT_EQ(kernel.AffectanceRaw(w, v), naive);
        EXPECT_EQ(acc.Out(w), std::min(naive, 1.0));
      }
    }
    if (!inst.space.IsCoordinateBacked()) continue;
    const auto pts = inst.space.points();
    const auto norm_sq = [&](int p, int q) {
      return (pts[static_cast<std::size_t>(p)] -
              pts[static_cast<std::size_t>(q)])
          .NormSq();
    };
    // eta = 1 puts the threshold at f_vv, which lattice distances tie.
    for (const double eta : {0.5, 1.0, 1.5}) {
      const double zeta = inst.space.alpha();
      const SeparationOracle oracle(kernel, eta, zeta);
      for (int v = 0; v < n; ++v) {
        const SeparationTest test(eta, zeta, kernel.LinkDecay(v),
                                  inst.space.alpha());
        for (int w = 0; w < n; ++w) {
          if (w == v) continue;
          const std::vector<int> member{w};
          EXPECT_EQ(oracle.IsSeparatedFrom(v, member),
                    system.IsSeparatedFrom(v, member, eta, zeta))
              << "eta " << eta << " pair " << v << "," << w;
          const Link& lv = system.link(v);
          const Link& lw = system.link(w);
          const double m2 =
              std::min(std::min(norm_sq(lv.sender, lw.receiver),
                                norm_sq(lw.sender, lv.receiver)),
                       std::min(norm_sq(lv.sender, lw.sender),
                                norm_sq(lv.receiver, lw.receiver)));
          if (m2 > test.RadiusSqHi()) {
            ++separated;
          } else if (m2 < test.RadiusSqLo()) {
            ++too_close;
          } else {
            ++exact;
          }
        }
      }
    }
  }
  EXPECT_GT(separated, 0);
  EXPECT_GT(too_close, 0);
  EXPECT_GT(exact, 0);
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
      const KernelCache kernel(system, UniformPower(system));
      const auto cached = capacity::RunAlgorithm1(kernel, zeta);
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

  const KernelCache kernel(system, power);
  EXPECT_EQ(capacity::GreedyFeasible(kernel, AllLinks(system)), reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedAlgorithmAgreement,
                         ::testing::Range(1, 7));

}  // namespace
}  // namespace decaylib::sinr
