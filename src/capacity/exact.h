// Exact CAPACITY: maximum-cardinality feasible subsets, searched by
// core::MaxWeightSubset (core/branch_and_bound.h) with unit weights.
//
// Feasibility is hereditary (dropping a link only lowers every in-
// affectance), so it is the search's Admits oracle.  Two oracles:
//   * fixed power assignment (e.g. uniform) -- the cached kernel's
//     IsFeasible;
//   * arbitrary power control -- the Foschini-Miljanic oracle, with pairwise
//     obstructions as the Compatible filter so most branches never reach it.
// Both are exponential in the worst case; intended for ground truth on
// n <= ~24 (fixed power) / ~16 (power control).
#pragma once

#include <span>
#include <vector>

#include "sinr/link_system.h"

namespace decaylib::capacity {

// Maximum feasible subset of `candidates` under the fixed `power`.
std::vector<int> ExactCapacity(const sinr::LinkSystem& system,
                               const sinr::PowerAssignment& power,
                               std::span<const int> candidates);

// Convenience overload over all links with uniform power.
std::vector<int> ExactCapacityUniform(const sinr::LinkSystem& system);

// Maximum subset of `candidates` feasible under *some* power assignment.
std::vector<int> ExactCapacityPowerControl(const sinr::LinkSystem& system,
                                           std::span<const int> candidates);

}  // namespace decaylib::capacity
