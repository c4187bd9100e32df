#include "capacity/weighted.h"

#include <algorithm>
#include <numeric>

#include "capacity/algorithm1.h"
#include "core/branch_and_bound.h"
#include "core/check.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

namespace decaylib::capacity {

double TotalWeight(std::span<const int> S, std::span<const double> weights) {
  double total = 0.0;
  for (int v : S) total += weights[static_cast<std::size_t>(v)];
  return total;
}

WeightedResult WeightedGreedy(const sinr::KernelCache& kernel,
                              std::span<const double> weights) {
  const int n = kernel.NumLinks();
  DL_CHECK(static_cast<int>(weights.size()) == n, "one weight per link");

  // Density = weight / (1 + total clamped affectance mass the link
  // exchanges with everyone): heavy, quiet links first.
  std::vector<double> density(static_cast<std::size_t>(n), 0.0);
  for (int v = 0; v < n; ++v) {
    double mass = 0.0;
    for (int w = 0; w < n; ++w) {
      if (w == v) continue;
      mass += kernel.Affectance(v, w) + kernel.Affectance(w, v);
    }
    density[static_cast<std::size_t>(v)] =
        weights[static_cast<std::size_t>(v)] / (1.0 + mass);
  }
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return density[static_cast<std::size_t>(a)] >
           density[static_cast<std::size_t>(b)];
  });

  // Admit while feasible, with the incremental accumulator standing in for
  // the naive push-IsFeasible-pop re-summation (bit-identical decisions).
  sinr::AffectanceAccumulator acc(kernel);
  for (int v : order) {
    if (weights[static_cast<std::size_t>(v)] <= 0.0) continue;
    if (!kernel.CanOvercomeNoise(v)) continue;
    if (acc.CanAddFeasibly(v)) acc.Add(v);
  }
  WeightedResult result;
  result.selected = acc.members();
  result.weight = TotalWeight(result.selected, weights);
  return result;
}

WeightedResult WeightedAlgorithm1(const sinr::KernelCache& kernel,
                                  std::span<const double> weights,
                                  double zeta) {
  const int n = kernel.NumLinks();
  DL_CHECK(static_cast<int>(weights.size()) == n, "one weight per link");
  DL_CHECK(zeta > 0.0, "zeta must be positive");

  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return weights[static_cast<std::size_t>(a)] >
           weights[static_cast<std::size_t>(b)];
  });
  // Non-positive weights are skipped by the naive loop before any other
  // test; filtering them from the order preserves the remaining decisions.
  std::erase_if(order, [&](int v) {
    return weights[static_cast<std::size_t>(v)] <= 0.0;
  });

  const Algorithm1Result admission = GreedyAdmission(kernel, zeta, order);
  WeightedResult result;
  result.selected = admission.selected;
  result.weight = TotalWeight(result.selected, weights);
  return result;
}

WeightedResult ExactWeightedCapacity(const sinr::LinkSystem& system,
                                     std::span<const double> weights) {
  DL_CHECK(static_cast<int>(weights.size()) == system.NumLinks(),
           "one weight per link");
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  // Heavy-first order makes the remaining-weight bound effective; links of
  // no weight, or that cannot overcome noise alone, never join.
  std::vector<int> universe(static_cast<std::size_t>(system.NumLinks()));
  std::iota(universe.begin(), universe.end(), 0);
  std::stable_sort(universe.begin(), universe.end(), [&](int a, int b) {
    return weights[static_cast<std::size_t>(a)] >
           weights[static_cast<std::size_t>(b)];
  });
  std::erase_if(universe, [&](int v) {
    return !(weights[static_cast<std::size_t>(v)] > 0.0) ||
           !kernel.CanOvercomeNoise(v);
  });
  struct Problem {
    const sinr::KernelCache& kernel;
    std::span<const double> weights;
    std::span<const int> universe;
    mutable std::vector<int> links;  // the chosen set as link ids
    double Weight(int i) const {
      return weights[static_cast<std::size_t>(
          universe[static_cast<std::size_t>(i)])];
    }
    std::size_t Pivot(std::span<const int>) const { return 0; }
    bool Compatible(int, int) const { return true; }
    bool Admits(std::span<const int> chosen) const {
      links.clear();
      for (int i : chosen) {
        links.push_back(universe[static_cast<std::size_t>(i)]);
      }
      return kernel.IsFeasible(links);
    }
  };
  const core::WeightedSubset best = core::MaxWeightSubset(
      Problem{kernel, weights, universe, {}}, static_cast<int>(universe.size()));
  WeightedResult result;
  for (int i : best.members) {
    result.selected.push_back(universe[static_cast<std::size_t>(i)]);
  }
  std::sort(result.selected.begin(), result.selected.end());
  result.weight = best.weight;
  return result;
}

}  // namespace decaylib::capacity
