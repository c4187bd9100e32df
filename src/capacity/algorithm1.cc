#include "capacity/algorithm1.h"

#include "core/check.h"
#include "sinr/power.h"

namespace decaylib::capacity {

Algorithm1Result RunAlgorithm1Naive(const sinr::LinkSystem& system,
                                    double zeta,
                                    std::span<const int> candidates) {
  DL_CHECK(zeta > 0.0, "zeta must be positive");
  const sinr::PowerAssignment power = sinr::UniformPower(system);
  Algorithm1Result result;
  std::vector<int>& X = result.admitted;
  for (int v : sinr::DecayOrder(system, candidates)) {
    if (!system.CanOvercomeNoise(v, power)) continue;
    if (!system.IsSeparatedFrom(v, X, zeta / 2.0, zeta)) continue;
    const double budget = system.OutAffectance(v, X, power) +
                          system.InAffectance(X, v, power);
    if (budget <= 0.5) X.push_back(v);
  }
  for (int v : X) {
    if (system.InAffectance(X, v, power) <= 1.0) result.selected.push_back(v);
  }
  return result;
}

Algorithm1Result RunAlgorithm1Naive(const sinr::LinkSystem& system,
                                    double zeta) {
  const std::vector<int> all = sinr::AllLinks(system);
  return RunAlgorithm1Naive(system, zeta, all);
}

}  // namespace decaylib::capacity
