// E6 -- The partition lemmas (Appendix B: Lemmas B.1, B.2, B.3, 4.1).
//
// For feasible sets extracted from random planar deployments:
//  * signal strengthening splits a 1-feasible set into q-feasible classes,
//    count <= ceil(2q)^2;
//  * e^2/beta-feasible sets are 1/zeta-separated (Lemma B.2) -- verified;
//  * separation amplification to eta-separated classes, count O((eta tau)^A');
//  * the composition (Lemma 4.1) yields zeta-separated classes, count
//    O(zeta^{2A'}).
#include <cstdio>

#include "bench_util.h"
#include "capacity/baselines.h"
#include "capacity/partitions.h"
#include "core/metricity.h"
#include "sinr/power.h"

using namespace decaylib;

int main() {
  bench::Banner("E6", "Partition lemmas B.1/B.2/B.3/4.1",
                "feasible sets split into O(zeta^{2A'}) zeta-separated "
                "classes");

  {
    std::printf("\n(a) Lemma B.1 signal strengthening (|S| from greedy, "
                "alpha = 3)\n\n");
    bench::Table table({"q", "|S|", "classes", "bound ceil(2q)^2",
                        "all q-feasible"});
    geom::Rng rng(1);
    bench::PlanarDeployment dep(40, 22.0, 0.5, 1.2, rng);
    const core::DecaySpace space =
        core::DecaySpace::Geometric(dep.points, 3.0);
    const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
    const auto power = sinr::UniformPower(system);
    const sinr::KernelCache kernel(system, power);
    const auto S = capacity::GreedyFeasible(kernel, sinr::AllLinks(kernel));
    for (const double q : {2.0, 4.0, 8.0, 16.0}) {
      const auto classes = capacity::SignalStrengthen(kernel, S, 1.0, q);
      bool all_ok = true;
      for (const auto& cls : classes) {
        if (!system.IsKFeasible(cls, q, power)) all_ok = false;
      }
      const double bound = std::ceil(2.0 * q) * std::ceil(2.0 * q);
      table.AddRow({bench::Fmt(q, 0),
                    bench::FmtInt(static_cast<long long>(S.size())),
                    bench::FmtInt(static_cast<long long>(classes.size())),
                    bench::Fmt(bound, 0), all_ok ? "yes" : "NO"});
    }
    table.Print();
  }

  {
    std::printf("\n(b) Lemma B.2 + B.3 + 4.1 across alpha (zeta = "
                "metricity)\n\n");
    bench::Table table({"alpha", "zeta", "|S|", "B.2 separated",
                        "4.1 classes", "all zeta-separated", "zeta^2 (ref)"});
    for (const double alpha : {2.0, 3.0, 4.0, 6.0}) {
      geom::Rng rng(static_cast<std::uint64_t>(alpha * 10));
      bench::PlanarDeployment dep(40, 22.0, 0.5, 1.2, rng);
      const core::DecaySpace space =
          core::DecaySpace::Geometric(dep.points, alpha);
      const double zeta = std::max(1.0, core::Metricity(space));
      const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
      const auto power = sinr::UniformPower(system);

      // Lemma B.2 check on an e^2-feasible greedy set.
      std::vector<int> strong;
      for (int v = 0; v < system.NumLinks(); ++v) {
        strong.push_back(v);
        if (!system.IsKFeasible(strong, std::exp(2.0), power)) {
          strong.pop_back();
        }
      }
      const bool b2 = system.IsSeparatedSet(strong, 1.0 / zeta, zeta);

      const sinr::KernelCache kernel(system, power);
      const auto S = capacity::GreedyFeasible(kernel, sinr::AllLinks(kernel));
      const auto classes = capacity::Lemma41Partition(kernel, S, zeta);
      bool all_sep = true;
      for (const auto& cls : classes) {
        if (!system.IsSeparatedSet(cls, zeta, zeta)) all_sep = false;
      }
      table.AddRow({bench::Fmt(alpha, 1), bench::Fmt(zeta),
                    bench::FmtInt(static_cast<long long>(S.size())),
                    b2 ? "yes" : "NO",
                    bench::FmtInt(static_cast<long long>(classes.size())),
                    all_sep ? "yes" : "NO", bench::Fmt(zeta * zeta, 1)});
    }
    table.Print();
  }

  std::printf(
      "\nExpected shape: class counts far below the ceil(2q)^2 worst case "
      "and polynomial in zeta;\nevery class certified q-feasible / "
      "zeta-separated; B.2 separation holds on all rows.\n");
  return 0;
}
