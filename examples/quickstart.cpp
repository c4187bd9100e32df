// Quickstart: build a decay space, inspect its parameters, run Algorithm 1.
//
//   $ ./quickstart
//
// Walks through the core API in ~60 lines:
//   1. make a decay space (here: measured-style, geometric + shadowing);
//   2. compute its metricity zeta and variant phi;
//   3. wrap links over it and check feasibility;
//   4. run the paper's Algorithm 1 and print the selected feasible set.
#include <cstdio>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "core/metricity.h"
#include "geom/rng.h"
#include "geom/samplers.h"
#include "sinr/power.h"
#include "spaces/samplers.h"

using namespace decaylib;

int main() {
  // 1. A 12-link deployment in a 20m x 20m area; decays follow d^3 with
  //    2 dB lognormal shadowing -- the kind of matrix a measurement
  //    campaign would produce.
  geom::Rng rng(42);
  std::vector<geom::Vec2> points;
  std::vector<sinr::Link> links;
  const std::vector<geom::Vec2> senders =
      geom::SampleMinDistance(12, 24.0, 24.0, 4.0, rng);
  for (const geom::Vec2& sender : senders) {
    points.push_back(sender);
    points.push_back(sender + geom::Vec2{1.0, 0.0}.Rotated(
                                  rng.Uniform(0.0, 2.0 * M_PI)));
    const int id = static_cast<int>(points.size());
    links.push_back({id - 2, id - 1});
  }
  geom::Rng shadowing(7);
  const core::DecaySpace space =
      spaces::ShadowedGeometric(points, 3.0, 2.0, shadowing, true);

  // 2. The space's complexity parameters.
  const double zeta = core::Metricity(space);
  const core::PhiResult phi = core::ComputePhi(space);
  std::printf("decay space: %d nodes, spread %.1f\n", space.size(),
              space.DecaySpread());
  std::printf("metricity zeta = %.3f (geometric alpha was 3.0)\n", zeta);
  std::printf("variant phi    = %.3f (phi_factor %.2f)\n", phi.phi,
              phi.phi_factor);

  // 3. Links + SINR machinery (beta = 1.5, noiseless).
  const sinr::LinkSystem system(space, links, {1.5, 0.0});
  const sinr::PowerAssignment power = sinr::UniformPower(system);
  const auto everyone = sinr::AllLinks(system);
  std::printf("all %d links at once feasible? %s\n", system.NumLinks(),
              system.IsFeasible(everyone, power) ? "yes" : "no");

  // 4. Algorithm 1 (Theorem 5): a zeta^{O(1)}-approximate feasible subset.
  //    Its separation test is deliberately conservative -- that is what buys
  //    the worst-case guarantee; the greedy baseline shows the typical-case
  //    headroom.
  //    Both run on one precomputed uniform-power kernel.
  const sinr::KernelCache kernel(system, power);
  const auto result = capacity::RunAlgorithm1(kernel, zeta);
  std::printf("Algorithm 1 selected %zu links:", result.selected.size());
  for (int v : result.selected) std::printf(" %d", v);
  std::printf("\nmax in-affectance of the selection: %.3f (must be <= 1)\n",
              system.MaxInAffectance(result.selected, power));
  const auto greedy = capacity::GreedyFeasible(kernel, everyone);
  std::printf("greedy baseline selected %zu links (no worst-case guarantee "
              "in decay spaces)\n",
              greedy.size());
  return 0;
}
