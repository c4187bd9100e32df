#include "capacity/partitions.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

// (Lemma B.3's first-fit colouring is implemented directly below, over
// in-affectance rather than a conflict graph, because the conflict test
// needs link geometry.)

namespace decaylib::capacity {

namespace {

// One first-fit pass: assign each link (scanned in `order`) to the first
// class where its in-affectance from the links already in the class is at
// most `budget` (summed in class order, as LinkSystem::InAffectance).
std::vector<std::vector<int>> FirstFitByInAffectance(
    const sinr::KernelCache& kernel, const std::vector<int>& order,
    double budget) {
  std::vector<std::vector<int>> classes;
  for (int v : order) {
    bool placed = false;
    for (auto& cls : classes) {
      double in = 0.0;
      for (int w : cls) in += kernel.Affectance(w, v);
      if (in <= budget) {
        cls.push_back(v);
        placed = true;
        break;
      }
    }
    if (!placed) classes.push_back({v});
  }
  return classes;
}

}  // namespace

std::vector<std::vector<int>> SignalStrengthen(const sinr::KernelCache& kernel,
                                               std::span<const int> S,
                                               double p, double q) {
  DL_CHECK(p > 0.0 && q >= p, "signal strengthening needs q >= p > 0");
  kernel.Require(sinr::KernelSlabs::kAffectance);
  const double budget = 1.0 / (2.0 * q);

  // Pass A: increasing decay order; in-affectance from *shorter* links.
  std::vector<int> increasing(S.begin(), S.end());
  std::stable_sort(increasing.begin(), increasing.end(), [&](int a, int b) {
    return kernel.LinkDecay(a) < kernel.LinkDecay(b);
  });
  const std::vector<std::vector<int>> coarse =
      FirstFitByInAffectance(kernel, increasing, budget);

  // Pass B within each class: decreasing decay order; in-affectance from
  // *longer* links.  Each final class then has total in-affectance at most
  // 2 * budget = 1/q for every member.
  std::vector<std::vector<int>> result;
  for (const auto& cls : coarse) {
    std::vector<int> decreasing = cls;
    std::stable_sort(decreasing.begin(), decreasing.end(), [&](int a, int b) {
      return kernel.LinkDecay(a) > kernel.LinkDecay(b);
    });
    auto fine = FirstFitByInAffectance(kernel, decreasing, budget);
    for (auto& group : fine) result.push_back(std::move(group));
  }
  return result;
}

std::vector<std::vector<int>> SeparationPartition(
    const sinr::KernelCache& kernel, std::span<const int> S, double eta,
    double zeta) {
  const sinr::SeparationOracle oracle(kernel, eta, zeta);
  // Non-increasing link length: when v is placed, all previously placed
  // links are at least as long, so the conflict test against max(d_vv, d_ww)
  // bounds the back-degree by the packing argument of Lemma B.3.
  std::vector<int> order(S.begin(), S.end());
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return kernel.LinkDecay(a) > kernel.LinkDecay(b);
  });
  std::vector<std::vector<int>> classes;
  for (int v : order) {
    bool placed = false;
    for (auto& cls : classes) {
      bool clash = false;
      for (int w : cls) {
        if (oracle.ConflictMaxLength(v, w)) {
          clash = true;
          break;
        }
      }
      if (!clash) {
        cls.push_back(v);
        placed = true;
        break;
      }
    }
    if (!placed) classes.push_back({v});
  }
  return classes;
}

std::vector<std::vector<int>> Lemma41Partition(const sinr::KernelCache& kernel,
                                               std::span<const int> S,
                                               double zeta) {
  const double beta = kernel.system().config().beta;
  const double strengthened = std::exp(2.0) / beta;  // e^2 / beta
  // S is feasible = 1-feasible; strengthen to e^2/beta-feasible classes
  // (each then 1/zeta-separated by Lemma B.2), then expand the separation.
  const auto coarse =
      SignalStrengthen(kernel, S, 1.0, std::max(1.0, strengthened));
  std::vector<std::vector<int>> result;
  for (const auto& cls : coarse) {
    auto fine = SeparationPartition(kernel, cls, zeta, zeta);
    for (auto& group : fine) result.push_back(std::move(group));
  }
  return result;
}

}  // namespace decaylib::capacity
