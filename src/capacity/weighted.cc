#include "capacity/weighted.h"

#include <algorithm>
#include <numeric>

#include "capacity/algorithm1.h"
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

namespace {

class WeightedSolver {
 public:
  WeightedSolver(const sinr::LinkSystem& system,
                 std::span<const double> weights)
      : kernel_(system, sinr::UniformPower(system)), weights_(weights) {
    // Heavy-first order makes the remaining-weight bound effective.
    order_.resize(static_cast<std::size_t>(system.NumLinks()));
    std::iota(order_.begin(), order_.end(), 0);
    std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
      return weights_[static_cast<std::size_t>(a)] >
             weights_[static_cast<std::size_t>(b)];
    });
    suffix_weight_.assign(order_.size() + 1, 0.0);
    for (std::size_t i = order_.size(); i > 0; --i) {
      suffix_weight_[i - 1] =
          suffix_weight_[i] +
          std::max(0.0, weights_[static_cast<std::size_t>(order_[i - 1])]);
    }
  }

  WeightedResult Solve() {
    std::vector<int> current;
    Recurse(0, current, 0.0);
    std::sort(best_.selected.begin(), best_.selected.end());
    return best_;
  }

 private:
  void Recurse(std::size_t index, std::vector<int>& current, double weight) {
    if (weight + suffix_weight_[index] <= best_.weight) return;
    if (index == order_.size()) {
      if (weight > best_.weight) best_ = {current, weight};
      return;
    }
    const int v = order_[index];
    const double wv = weights_[static_cast<std::size_t>(v)];
    if (wv > 0.0 && kernel_.CanOvercomeNoise(v)) {
      current.push_back(v);
      if (kernel_.IsFeasible(current)) {
        Recurse(index + 1, current, weight + wv);
      }
      current.pop_back();
    }
    Recurse(index + 1, current, weight);
  }

  sinr::KernelCache kernel_;
  std::span<const double> weights_;
  std::vector<int> order_;
  std::vector<double> suffix_weight_;
  WeightedResult best_;
};

}  // namespace

WeightedResult ExactWeightedCapacity(const sinr::LinkSystem& system,
                                     std::span<const double> weights) {
  DL_CHECK(static_cast<int>(weights.size()) == system.NumLinks(),
           "one weight per link");
  return WeightedSolver(system, weights).Solve();
}

}  // namespace decaylib::capacity
