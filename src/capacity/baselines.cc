#include "capacity/baselines.h"

namespace decaylib::capacity {

std::vector<int> GreedyHalfAffectance(const sinr::KernelCache& kernel,
                                      std::span<const int> candidates) {
  sinr::AffectanceAccumulator acc(kernel);
  for (int v : sinr::DecayOrder(kernel, candidates)) {
    if (acc.Contains(v)) continue;
    if (!kernel.CanOvercomeNoise(v)) continue;
    if (acc.BudgetWithinHalf(v)) acc.Add(v);
  }
  std::vector<int> selected;
  for (int v : acc.members()) {
    if (acc.InWithinOne(v)) selected.push_back(v);
  }
  return selected;
}

}  // namespace decaylib::capacity
