// core::MaxWeightSubset: the one exact branch and bound behind
// ExactCapacity, ExactCapacityPowerControl, ExactWeightedCapacity,
// graph::MaxIndependentSet, PackingNumberExact, MaxIndependentWrt and
// FadingValueExact.  Exponential: ground truth for small instances.
//
// A problem numbers its universe 0..size-1 in search order and answers:
//   double Weight(int i)                  non-negative weight of i;
//   std::size_t Pivot(span<const int> a)  index into the active list `a`;
//   bool Compatible(int i, int j)         symmetric pairwise filter;
//   bool Admits(span<const int> chosen)   hereditary oracle, newest last.
//
// A node's active list holds the positions still compatible with every
// chosen one, in universe order.  Its bound is the chosen weight with the
// active weights folded on in that order; a node whose bound is not above
// the best weight is pruned.  The pivot is included (if Admitted) before it
// is excluded, and only a strictly greater weight replaces the best set, so
// the result is the first optimum in include-first order whatever the bound
// prunes.  In floating point that needs the bound to dominate every set
// below it, which holds when the pivot is the front of the active list
// (members are then folded in bound order) or the weights are integers.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace decaylib::core {

struct WeightedSubset {
  std::vector<int> members;  // universe positions, in inclusion order
  double weight = 0.0;       // members' weights folded in inclusion order
};

// Pivot rule of the independent-set problems: the first active position
// incompatible with the most other active positions.
template <typename Problem>
std::size_t MostConflicted(const Problem& problem,
                           std::span<const int> active) {
  std::size_t pivot = 0;
  int most = -1;
  for (std::size_t a = 0; a < active.size(); ++a) {
    int conflicts = 0;
    for (int j : active) {
      if (j != active[a] && !problem.Compatible(active[a], j)) ++conflicts;
    }
    if (conflicts > most) {
      most = conflicts;
      pivot = a;
    }
  }
  return pivot;
}

namespace detail {

template <typename Problem>
class SubsetSearch {
 public:
  explicit SubsetSearch(const Problem& problem) : problem_(problem) {}

  WeightedSubset Run(int size) {
    // One active list per depth (each level drops at least the pivot), so
    // the search allocates nothing per node.
    frames_.assign(static_cast<std::size_t>(size) + 1, {});
    for (std::vector<int>& frame : frames_) {
      frame.reserve(static_cast<std::size_t>(size));
    }
    double bound = 0.0;
    for (int i = 0; i < size; ++i) {
      frames_[0].push_back(i);
      bound += problem_.Weight(i);
    }
    if (bound > best_.weight) Recurse(0, 0.0);
    return std::move(best_);
  }

 private:
  // Searches below a node whose bound is above the best weight.  A child's
  // bound is folded while its active list is built, and the child is
  // entered only when the bound still passes the best weight at that time.
  void Recurse(std::size_t depth, double weight) {
    const std::vector<int>& active = frames_[depth];
    if (active.empty()) {
      best_ = {chosen_, weight};
      return;
    }
    const int pivot = active[problem_.Pivot(std::span<const int>(active))];
    std::vector<int>& rest = frames_[depth + 1];
    chosen_.push_back(pivot);
    if (problem_.Admits(std::span<const int>(chosen_))) {
      const double included = weight + problem_.Weight(pivot);
      double bound = included;
      rest.clear();
      for (int i : active) {
        if (i != pivot && problem_.Compatible(pivot, i)) {
          rest.push_back(i);
          bound += problem_.Weight(i);
        }
      }
      if (bound > best_.weight) Recurse(depth + 1, included);
    }
    chosen_.pop_back();
    double bound = weight;
    rest.clear();
    for (int i : active) {
      if (i != pivot) {
        rest.push_back(i);
        bound += problem_.Weight(i);
      }
    }
    if (bound > best_.weight) Recurse(depth + 1, weight);
  }

  const Problem& problem_;
  std::vector<std::vector<int>> frames_;
  std::vector<int> chosen_;
  WeightedSubset best_;
};

}  // namespace detail

// The maximum-weight subset of positions 0..size-1 whose members are
// pairwise Compatible and whose every inclusion prefix is Admitted; the
// empty set (weight 0) when no such subset has positive weight.
template <typename Problem>
WeightedSubset MaxWeightSubset(const Problem& problem, int size) {
  return detail::SubsetSearch<Problem>(problem).Run(size);
}

// The unit-weight problem with only a pairwise filter: a maximum
// independent set of the conflict graph, branching on MostConflicted.
// Positions in inclusion order.
template <typename CompatibleFn>
std::vector<int> LargestCompatibleSet(int size, CompatibleFn compatible) {
  // MostConflicted reads every active pair at every node: tabulate once.
  struct Problem {
    int size;
    std::vector<char> table;  // size x size, row-major
    double Weight(int) const { return 1.0; }
    std::size_t Pivot(std::span<const int> active) const {
      return MostConflicted(*this, active);
    }
    bool Compatible(int i, int j) const {
      return table[static_cast<std::size_t>(i * size + j)] != 0;
    }
    bool Admits(std::span<const int>) const { return true; }
  };
  Problem problem{size, {}};
  for (int i = 0; i < size; ++i) {
    for (int j = 0; j < size; ++j) {
      problem.table.push_back(i != j && compatible(i, j) ? 1 : 0);
    }
  }
  return MaxWeightSubset(problem, size).members;
}

}  // namespace decaylib::core
