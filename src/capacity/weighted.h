// Weighted capacity (transfer list's [26, 43, 33]: weighted capacity,
// flexible data rates, cognitive-radio admission).
//
// Each link carries a non-negative weight (value, rate, priority); WEIGHTED
// CAPACITY asks for a feasible subset of maximum total weight.  The
// guarantees of the cited works are again functions of the metric parameter
// only, so they transfer with alpha -> zeta.  Provided here:
//   * WeightedGreedy      -- scan by weight density (weight per unit of
//                            clamped affectance mass), admit while feasible;
//                            the standard constant-factor pattern;
//   * WeightedAlgorithm1  -- Algorithm 1's admission rule, scanning in
//                            decreasing weight instead of increasing decay
//                            within separation classes;
//   * ExactWeightedCapacity -- core::MaxWeightSubset (core/branch_and_bound.h)
//                            over the links of positive weight, heaviest
//                            first, with kernel feasibility as the oracle.
//
// WeightedGreedy and WeightedAlgorithm1 run on a prebuilt sinr::KernelCache
// (uniform power for the guarantees above), so one kernel build serves every
// weight vector and every task of a batched scenario run.
#pragma once

#include <span>
#include <vector>

#include "sinr/kernel.h"
#include "sinr/link_system.h"

namespace decaylib::capacity {

struct WeightedResult {
  std::vector<int> selected;
  double weight = 0.0;
};

double TotalWeight(std::span<const int> S, std::span<const double> weights);

// Greedy by weight-to-interference density, kept feasible (uniform power).
WeightedResult WeightedGreedy(const sinr::KernelCache& kernel,
                              std::span<const double> weights);

// Algorithm 1 admission (zeta/2-separation + affectance margin), scanning
// links by decreasing weight; the final filter keeps a_X(v) <= 1.
WeightedResult WeightedAlgorithm1(const sinr::KernelCache& kernel,
                                  std::span<const double> weights,
                                  double zeta);

// Exact maximum-weight feasible subset; intended for n <= ~22.
WeightedResult ExactWeightedCapacity(const sinr::LinkSystem& system,
                                     std::span<const double> weights);

}  // namespace decaylib::capacity
