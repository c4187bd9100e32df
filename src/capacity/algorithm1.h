// Algorithm 1 of the paper: uniform-power CAPACITY in bounded-growth decay
// spaces, zeta^{O(1)}-approximate (Theorem 5); O(alpha^4) on the plane.
//
// Verbatim from the paper:
//
//   Let L be a set of links using uniform power and let X <- {}
//   for l_v in L in order of increasing f_vv value do
//     if l_v is zeta/2-separated from X and a_v(X) + a_X(v) <= 1/2 then
//       X <- X u {l_v}
//   Return S <- {l_v in X | a_X(v) <= 1}
//
// The final filter is needed because links admitted later can push an
// earlier link's in-affectance past the admission margin; Markov's
// inequality guarantees |S| >= |X| / 2 (Eqn. 5 in the proof of Theorem 5).
//
// The admission loop is one template over the kernel tier
// (sinr/kernel_tier.h).  On the dense KernelCache, separation tests become
// decay-domain comparisons and the in/out-affectance budgets incremental
// accumulator reads, so a run costs O(n^2) cache build plus O(n |X|)
// admission work with no pow on the hot path; on the FarFieldKernel the same
// decisions come from certified pooled bounds.  The *Naive variants
// recompute every kernel entry through the LinkSystem methods; they are kept
// as the reference path that property tests compare against.
#pragma once

#include <span>
#include <vector>

#include "core/check.h"
#include "sinr/kernel.h"
#include "sinr/kernel_tier.h"
#include "sinr/link_system.h"

namespace decaylib::capacity {

struct Algorithm1Result {
  std::vector<int> selected;   // S, the returned feasible set
  std::vector<int> admitted;   // X, before the final affectance filter
};

// Runs Algorithm 1 on the candidate links (defaults to all links) with the
// given metricity zeta of the underlying space.  Uses uniform power 1.
Algorithm1Result RunAlgorithm1(const sinr::LinkSystem& system, double zeta,
                               std::span<const int> candidates);

Algorithm1Result RunAlgorithm1(const sinr::LinkSystem& system, double zeta);

// The admission loop + Markov filter over an explicit candidate order
// (already sorted by the caller).  Shared by RunAlgorithm1 (decay order) and
// WeightedAlgorithm1 (weight order).
template <sinr::KernelTier K>
Algorithm1Result GreedyAdmission(const K& kernel, double zeta,
                                 std::span<const int> order) {
  DL_CHECK(zeta > 0.0, "zeta must be positive");
  typename K::Accumulator acc(kernel);
  for (int v : order) {
    // A candidate listed twice is admitted at most once (the naive
    // reference would duplicate it in X on such degenerate input).
    if (acc.Contains(v)) continue;
    if (!kernel.CanOvercomeNoise(v)) continue;
    if (!acc.IsSeparatedFromMembers(v, zeta / 2.0, zeta)) continue;
    // a_v(X) and a_X(v) summed in admission order -- the same order the
    // naive path sums them in.
    if (acc.BudgetWithinHalf(v)) acc.Add(v);
  }
  Algorithm1Result result;
  result.admitted = acc.members();
  for (int v : result.admitted) {
    if (acc.In(v) <= 1.0) result.selected.push_back(v);
  }
  return result;
}

// Kernel-tier entry points: reuse a prebuilt kernel (e.g. across the slots
// of a schedule).  The kernel's power assignment is used as-is; build it
// with UniformPower for the paper's algorithm.
template <sinr::KernelTier K>
Algorithm1Result RunAlgorithm1(const K& kernel, double zeta,
                               std::span<const int> candidates) {
  return GreedyAdmission(kernel, zeta, sinr::DecayOrder(kernel, candidates));
}

template <sinr::KernelTier K>
Algorithm1Result RunAlgorithm1(const K& kernel, double zeta) {
  return RunAlgorithm1(kernel, zeta, sinr::AllLinks(kernel));
}

// Reference implementation on the naive LinkSystem methods; recomputes every
// affectance and separation from scratch.  Kept for property tests and
// speedup benchmarks.
Algorithm1Result RunAlgorithm1Naive(const sinr::LinkSystem& system,
                                    double zeta,
                                    std::span<const int> candidates);

Algorithm1Result RunAlgorithm1Naive(const sinr::LinkSystem& system,
                                    double zeta);

}  // namespace decaylib::capacity
