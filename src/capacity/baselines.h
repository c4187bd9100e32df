// Baseline capacity heuristics for comparison with Algorithm 1.
//
//  * GreedyFeasible: process links in increasing decay order; admit a link
//    whenever the set stays feasible.  The natural general-metric greedy in
//    the lineage of [21, 30]; its approximation guarantee in decay spaces is
//    exponential in zeta (refined to 3^zeta in the sibling paper [24]).
//  * GreedyHalfAffectance: Algorithm 1 *without* the separation test --
//    admit when a_v(X) + a_X(v) <= 1/2, then filter to a_X(v) <= 1.  This is
//    the [30]-style oblivious-power greedy specialised to uniform power;
//    comparing it against Algorithm 1 isolates the contribution of the
//    separation condition (the source of the plane's polynomial bound).
//  * RandomFeasible: admit in random order while feasible; a sanity floor.
//
// All baselines return feasible sets under the kernel's power assignment
// (uniform power for the comparisons above: build the kernel with
// UniformPower, once per system).  Each runs on a prebuilt kernel with
// incremental feasibility (O(|S|) per candidate instead of O(|S|^2)
// re-summation) -- GreedyFeasible and RandomFeasible over any kernel tier
// (sinr/kernel_tier.h), GreedyHalfAffectance on sinr::KernelCache.
#pragma once

#include <span>
#include <vector>

#include "geom/rng.h"
#include "sinr/kernel.h"
#include "sinr/kernel_tier.h"

namespace decaylib::capacity {

// Admits each link of `order` in turn while the set stays feasible.  On the
// dense tier the incremental check reproduces, bit for bit, the naive
// push-IsFeasible-pop loop: in-affectance sums accumulate in the same
// admission order, and the candidate's own row adds a trailing 0.
template <sinr::KernelTier K>
std::vector<int> AdmitWhileFeasible(const K& kernel,
                                    std::span<const int> order) {
  typename K::Accumulator acc(kernel);
  for (int v : order) {
    if (acc.Contains(v)) continue;  // duplicate candidate ids admit once
    if (!kernel.CanOvercomeNoise(v)) continue;
    if (acc.CanAddFeasibly(v)) acc.Add(v);
  }
  return acc.members();
}

template <sinr::KernelTier K>
std::vector<int> GreedyFeasible(const K& kernel,
                                std::span<const int> candidates) {
  return AdmitWhileFeasible(kernel, sinr::DecayOrder(kernel, candidates));
}

std::vector<int> GreedyHalfAffectance(const sinr::KernelCache& kernel,
                                      std::span<const int> candidates);

// Shuffles the candidates with `rng`, then admits in that order.
template <sinr::KernelTier K>
std::vector<int> RandomFeasible(const K& kernel,
                                std::span<const int> candidates,
                                geom::Rng& rng) {
  std::vector<int> order(candidates.begin(), candidates.end());
  rng.Shuffle(order);
  return AdmitWhileFeasible(kernel, order);
}

}  // namespace decaylib::capacity
