// E2 -- Theory transfer (Proposition 1).
//
// Running any metric-properties-only algorithm on a decay space D is the
// same as running it on the induced quasi-metric D' = (V, f^{1/zeta}) with
// path loss constant zeta.  We verify the strongest form -- identical
// outputs after a D -> D' -> D round trip -- and show the complexity knob:
// the same algorithm's approximation ratio (vs exact OPT) tracks zeta on
// measured-style spaces exactly as it tracked alpha on geometric ones.
#include <cstdio>

#include "bench_util.h"
#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "capacity/exact.h"
#include "core/metricity.h"
#include "sinr/power.h"
#include "spaces/samplers.h"

using namespace decaylib;

int main() {
  bench::Banner("E2", "Theory transfer to decay spaces",
                "results transfer verbatim with alpha -> zeta (Prop. 1)");

  {
    std::printf(
        "\n(a) Round-trip identity: algorithm outputs on D vs on the "
        "re-embedded quasi-metric\n\n");
    bench::Table table({"seed", "zeta", "alg1 identical", "greedy identical"});
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      geom::Rng rng(seed);
      bench::PlanarDeployment dep(16, 20.0, 0.6, 1.4, rng);
      geom::Rng shadow(seed + 100);
      const core::DecaySpace noisy =
          spaces::ShadowedGeometric(dep.points, 3.0, 6.0, shadow, true);
      const double zeta = core::Metricity(noisy);
      const core::QuasiMetric d(noisy, zeta);
      const core::DecaySpace rebuilt =
          core::DecaySpace::FromDistancePower(d.Matrix(), zeta);
      const sinr::LinkSystem sys_a(noisy, dep.links, {1.0, 0.0});
      const sinr::LinkSystem sys_b(rebuilt, dep.links, {1.0, 0.0});
      const sinr::KernelCache kernel_a(sys_a, sinr::UniformPower(sys_a));
      const sinr::KernelCache kernel_b(sys_b, sinr::UniformPower(sys_b));
      const std::vector<int> all = sinr::AllLinks(sys_a);
      const bool alg1_same =
          capacity::RunAlgorithm1(kernel_a, zeta).selected ==
          capacity::RunAlgorithm1(kernel_b, zeta).selected;
      const bool greedy_same = capacity::GreedyFeasible(kernel_a, all) ==
                               capacity::GreedyFeasible(kernel_b, all);
      table.AddRow({bench::FmtInt(static_cast<long long>(seed)),
                    bench::Fmt(zeta), alg1_same ? "yes" : "NO",
                    greedy_same ? "yes" : "NO"});
    }
    table.Print();
  }

  {
    std::printf(
        "\n(b) Approximation ratio vs metricity: same algorithm, spaces of "
        "growing zeta\n    (16 links, OPT by branch and bound, mean of 5 "
        "seeds)\n\n");
    bench::Table table({"space", "mean zeta", "OPT/alg1", "OPT/greedy"});
    struct Config {
      const char* name;
      double alpha;
      double sigma_db;
    };
    const Config configs[] = {{"geometric a=2", 2.0, 0.0},
                              {"geometric a=3", 3.0, 0.0},
                              {"shadowed a=3 s=4", 3.0, 4.0},
                              {"shadowed a=3 s=8", 3.0, 8.0},
                              {"shadowed a=3 s=12", 3.0, 12.0}};
    for (const Config& config : configs) {
      double zeta_sum = 0.0;
      double ratio_alg1 = 0.0;
      double ratio_greedy = 0.0;
      const int trials = 5;
      for (std::uint64_t seed = 1; seed <= trials; ++seed) {
        geom::Rng rng(seed);
        bench::PlanarDeployment dep(16, 14.0, 0.6, 1.4, rng);
        geom::Rng shadow(seed + 50);
        const core::DecaySpace space =
            config.sigma_db == 0.0
                ? core::DecaySpace::Geometric(dep.points, config.alpha)
                : spaces::ShadowedGeometric(dep.points, config.alpha,
                                            config.sigma_db, shadow, true);
        const double zeta = std::max(1.0, core::Metricity(space));
        zeta_sum += zeta;
        const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
        const sinr::KernelCache kernel(system, sinr::UniformPower(system));
        const auto opt = capacity::ExactCapacityUniform(system);
        const auto alg1 = capacity::RunAlgorithm1(kernel, zeta).selected;
        const auto greedy =
            capacity::GreedyFeasible(kernel, sinr::AllLinks(kernel));
        ratio_alg1 += static_cast<double>(opt.size()) /
                      std::max<std::size_t>(1, alg1.size());
        ratio_greedy += static_cast<double>(opt.size()) /
                        std::max<std::size_t>(1, greedy.size());
      }
      table.AddRow({config.name, bench::Fmt(zeta_sum / trials),
                    bench::Fmt(ratio_alg1 / trials),
                    bench::Fmt(ratio_greedy / trials)});
    }
    table.Print();
  }

  std::printf(
      "\nExpected shape: every round trip identical; approximation ratios "
      "degrade as zeta grows,\nmirroring the alpha-dependence of the "
      "original GEO-SINR guarantees.\n");
  return 0;
}
