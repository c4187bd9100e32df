// Link scheduling by repeated capacity extraction (theory transfer of the
// SCHEDULING results listed in Sec. 2.3).
//
// SCHEDULING asks for a partition of the link set into the fewest feasible
// slots.  Extracting an approximate maximum feasible subset per round gives
// an O(rho log n)-approximation when the extractor is rho-approximate -- the
// standard reduction the paper's transfer list relies on ([16, 17, 43]).
// Two extractors are provided: Algorithm 1 (zeta-aware) and the
// general-metric greedy baseline.
#pragma once

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "sinr/kernel_tier.h"

namespace decaylib::scheduling {

enum class Extractor {
  kAlgorithm1,      // paper's Algorithm 1 per slot
  kGreedyFeasible,  // general-metric greedy per slot
};

struct Schedule {
  std::vector<std::vector<int>> slots;
  int Length() const noexcept { return static_cast<int>(slots.size()); }
};

// Schedules all candidate links on a prebuilt kernel of either tier (build
// it with UniformPower for the reduction above); one kernel serves every
// slot extraction, since the affectance and distance kernels do not depend
// on the shrinking candidate set.  `zeta` is the metricity of the
// underlying space (used by Algorithm 1's separation test).  Guarantees
// termination: if an extraction round returns an empty set while links
// remain, the shortest remaining link is scheduled alone.
template <sinr::KernelTier K>
Schedule ScheduleLinks(const K& kernel, double zeta, Extractor extractor,
                       std::span<const int> candidates) {
  Schedule schedule;
  std::vector<int> remaining(candidates.begin(), candidates.end());
  while (!remaining.empty()) {
    std::vector<int> slot;
    switch (extractor) {
      case Extractor::kAlgorithm1:
        slot = capacity::RunAlgorithm1(kernel, zeta, remaining).selected;
        break;
      case Extractor::kGreedyFeasible:
        slot = capacity::GreedyFeasible(kernel, remaining);
        break;
    }
    if (slot.empty()) {
      // Fall back to scheduling the shortest remaining link alone so the
      // schedule always completes (e.g. links that fail noise-margin tests
      // inside the extractor still occupy a slot of their own).
      const auto shortest = std::min_element(
          remaining.begin(), remaining.end(), [&](int a, int b) {
            return kernel.LinkDecay(a) < kernel.LinkDecay(b);
          });
      slot.push_back(*shortest);
    }
    std::set<int> scheduled(slot.begin(), slot.end());
    std::vector<int> rest;
    rest.reserve(remaining.size() - slot.size());
    for (int v : remaining) {
      if (scheduled.find(v) == scheduled.end()) rest.push_back(v);
    }
    remaining.swap(rest);
    schedule.slots.push_back(std::move(slot));
  }
  return schedule;
}

// True iff every multi-link slot is feasible on the kernel and the slots
// partition exactly the given candidate set (multiset equality).
template <sinr::KernelTier K>
bool ValidateSchedule(const K& kernel, const Schedule& schedule,
                      std::span<const int> candidates) {
  std::multiset<int> scheduled;
  for (const auto& slot : schedule.slots) {
    if (slot.size() > 1 && !kernel.IsFeasible(slot)) return false;
    scheduled.insert(slot.begin(), slot.end());
  }
  std::multiset<int> wanted(candidates.begin(), candidates.end());
  return scheduled == wanted;
}

}  // namespace decaylib::scheduling
