#include "scheduling/scheduler.h"

#include "sinr/power.h"

namespace decaylib::scheduling {

Schedule ScheduleLinks(const sinr::LinkSystem& system, double zeta,
                       Extractor extractor, std::span<const int> candidates) {
  // One kernel build serves every slot extraction: the affectance and
  // distance kernels do not depend on the shrinking candidate set.
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  return ScheduleLinks(kernel, zeta, extractor, candidates);
}

Schedule ScheduleLinks(const sinr::LinkSystem& system, double zeta,
                       Extractor extractor) {
  const std::vector<int> all = sinr::AllLinks(system);
  return ScheduleLinks(system, zeta, extractor, all);
}

bool ValidateSchedule(const sinr::LinkSystem& system, const Schedule& schedule,
                      std::span<const int> candidates) {
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  return ValidateSchedule(kernel, schedule, candidates);
}

}  // namespace decaylib::scheduling
