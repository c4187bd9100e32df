#include "capacity/exact.h"

#include <algorithm>

#include "core/branch_and_bound.h"
#include "sinr/kernel.h"
#include "sinr/power.h"
#include "sinr/power_control.h"

namespace decaylib::capacity {

namespace {

// Largest subset of `universe` (searched in its order) whose pairs pass
// `compatible` and whose every inclusion prefix passes `feasible` (a
// predicate on link ids); sorted link ids.
template <typename CompatibleFn, typename FeasibleFn>
std::vector<int> LargestFeasible(std::span<const int> universe,
                                 CompatibleFn compatible, FeasibleFn feasible) {
  struct Problem {
    std::span<const int> universe;
    CompatibleFn compatible;
    FeasibleFn feasible;
    mutable std::vector<int> links;  // the chosen set as link ids
    double Weight(int) const { return 1.0; }
    std::size_t Pivot(std::span<const int>) const { return 0; }
    bool Compatible(int i, int j) const { return compatible(i, j); }
    bool Admits(std::span<const int> chosen) const {
      links.clear();
      for (int i : chosen) {
        links.push_back(universe[static_cast<std::size_t>(i)]);
      }
      return feasible(links);
    }
  };
  const Problem problem{universe, compatible, feasible, {}};
  std::vector<int> best =
      core::MaxWeightSubset(problem, static_cast<int>(universe.size())).members;
  for (int& i : best) i = universe[static_cast<std::size_t>(i)];
  std::sort(best.begin(), best.end());
  return best;
}

}  // namespace

std::vector<int> ExactCapacity(const sinr::LinkSystem& system,
                               const sinr::PowerAssignment& power,
                               std::span<const int> candidates) {
  // The branch and bound calls the feasibility oracle on every explored
  // node; the cached kernel turns each affectance term into a lookup.
  const sinr::KernelCache kernel(system, power);
  // Links that cannot even overcome noise alone can never appear.
  std::vector<int> universe;
  for (int v : candidates) {
    if (kernel.CanOvercomeNoise(v)) universe.push_back(v);
  }
  return LargestFeasible(
      universe, [](int, int) { return true; },
      [&](std::span<const int> S) { return kernel.IsFeasible(S); });
}

std::vector<int> ExactCapacityUniform(const sinr::LinkSystem& system) {
  const std::vector<int> all = sinr::AllLinks(system);
  return ExactCapacity(system, sinr::UniformPower(system), all);
}

std::vector<int> ExactCapacityPowerControl(const sinr::LinkSystem& system,
                                           std::span<const int> candidates) {
  // Pairs that no power assignment can serve together are dropped from the
  // search before the iterative oracle ever sees them.
  const double beta2 = system.config().beta * system.config().beta;
  return LargestFeasible(
      candidates,
      [&](int i, int j) {
        const int v = candidates[static_cast<std::size_t>(std::min(i, j))];
        const int w = candidates[static_cast<std::size_t>(std::max(i, j))];
        return !(sinr::PairwiseAffectanceProduct(system, v, w) > beta2);
      },
      [&](std::span<const int> S) {
        return sinr::FeasibleWithPowerControl(system, S).feasible;
      });
}

}  // namespace decaylib::capacity
