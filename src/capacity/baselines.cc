#include "capacity/baselines.h"

#include "sinr/power.h"

namespace decaylib::capacity {

std::vector<int> GreedyFeasible(const sinr::LinkSystem& system,
                                std::span<const int> candidates) {
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  return GreedyFeasible(kernel, candidates);
}

std::vector<int> GreedyFeasible(const sinr::LinkSystem& system) {
  const std::vector<int> all = sinr::AllLinks(system);
  return GreedyFeasible(system, all);
}

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
    if (acc.In(v) <= 1.0) selected.push_back(v);
  }
  return selected;
}

std::vector<int> GreedyHalfAffectance(const sinr::LinkSystem& system,
                                      std::span<const int> candidates) {
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  return GreedyHalfAffectance(kernel, candidates);
}

std::vector<int> GreedyHalfAffectance(const sinr::LinkSystem& system) {
  const std::vector<int> all = sinr::AllLinks(system);
  return GreedyHalfAffectance(system, all);
}

std::vector<int> RandomFeasible(const sinr::LinkSystem& system,
                                std::span<const int> candidates,
                                geom::Rng& rng) {
  std::vector<int> order(candidates.begin(), candidates.end());
  rng.Shuffle(order);
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  return AdmitWhileFeasible(kernel, order);
}

}  // namespace decaylib::capacity
