// The kernel-tier concept: everything the admission pipelines ask of an
// SINR kernel.
//
// The paper's algorithms need only a decay/affectance oracle, not a
// particular representation of it.  Two tiers provide that oracle:
//   * dense: KernelCache + AffectanceAccumulator (+ SeparationOracle), the
//     O(n^2) precomputed matrices (sinr/kernel.h);
//   * far-field: FarFieldKernel + FarFieldAccumulator, certified pooled
//     bounds over the endpoint geometry (sinr/farfield.h).
// Algorithm 1 (capacity/algorithm1.h), the greedy baselines
// (capacity/baselines.h) and scheduling (scheduling/scheduler.h) are each
// written once as a template over KernelTier, so both tiers run the same
// control flow decision for decision; a tier only decides how each
// threshold test is evaluated.
#pragma once

#include <algorithm>
#include <concepts>
#include <numeric>
#include <span>
#include <vector>

namespace decaylib::sinr {

// A kernel tier K exposes per-link queries and set feasibility (every
// member's raw in-affectance <= 1), plus an associated running-sum
// accumulator K::Accumulator over a growing admitted set:
//   * InWithinOne(v): member v's clamped in-affectance from the members is
//     <= 1 (Algorithm 1's final filter);
//   * CanAddFeasibly(v): members() + {v} is feasible;
//   * BudgetWithinHalf(v): Algorithm 1's Out(v) + In(v) <= 1/2;
//   * IsSeparatedFromMembers(v, eta, zeta): d(l_v, l_w) >= eta * d_vv for
//     every member w.
// Feasibility and every accumulator query are yes/no threshold tests, never
// sums: the pipelines only compare affectance against 1 or 1/2, so a tier
// may stop evaluating as soon as the answer is certain.  The dense tier reads its exact sums;
// the far-field tier stops refining certified bounds once they clear the
// threshold.
template <class K>
concept KernelTier =
    requires(const K& kernel, std::span<const int> S, int v) {
      { kernel.NumLinks() } -> std::convertible_to<int>;
      { kernel.LinkDecay(v) } -> std::convertible_to<double>;
      { kernel.CanOvercomeNoise(v) } -> std::convertible_to<bool>;
      { kernel.IsFeasible(S) } -> std::convertible_to<bool>;
    } &&
    std::constructible_from<typename K::Accumulator, const K&> &&
    requires(typename K::Accumulator& acc, int v, double eta, double zeta) {
      acc.Add(v);
      { acc.Contains(v) } -> std::convertible_to<bool>;
      { acc.members() } -> std::convertible_to<std::span<const int>>;
      { acc.InWithinOne(v) } -> std::convertible_to<bool>;
      { acc.CanAddFeasibly(v) } -> std::convertible_to<bool>;
      { acc.BudgetWithinHalf(v) } -> std::convertible_to<bool>;
      { acc.IsSeparatedFromMembers(v, eta, zeta) } -> std::convertible_to<bool>;
    };

// Every link id of a tier: {0, 1, ..., n-1}.
template <KernelTier K>
std::vector<int> AllLinks(const K& kernel) {
  std::vector<int> ids(static_cast<std::size_t>(kernel.NumLinks()));
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

// `candidates` sorted by non-decreasing link decay f_vv, ties in candidate
// order -- the total order "prec" of Sec. 2.4 that every greedy admission
// loop walks.  Any type with LinkDecay(int) works (both tiers, LinkSystem).
template <class K>
std::vector<int> DecayOrder(const K& kernel, std::span<const int> candidates) {
  std::vector<int> order(candidates.begin(), candidates.end());
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return kernel.LinkDecay(a) < kernel.LinkDecay(b);
  });
  return order;
}

}  // namespace decaylib::sinr
