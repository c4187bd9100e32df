// Maximum independent set: exact branch and bound and a greedy baseline.
//
// The hardness reductions of Theorems 3 and 6 map independent sets to
// feasible link sets one-to-one, so an exact MIS solver gives exact CAPACITY
// ground truth on the constructed decay spaces.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace decaylib::graph {

// Exact maximum independent set: core::LargestCompatibleSet
// (core/branch_and_bound.h), branching on a max-degree vertex.  Practical to
// n ~ 60 on sparse and ~ 40 on dense graphs.
std::vector<int> MaxIndependentSet(const Graph& g);

// Greedy minimum-degree independent set: repeatedly take a vertex of minimum
// degree in the remaining graph and delete its neighbourhood.
std::vector<int> GreedyIndependentSet(const Graph& g);

}  // namespace decaylib::graph
