#include "scheduling/scheduler.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/decay_space.h"
#include "core/metricity.h"
#include "geom/rng.h"
#include "sinr/power.h"

namespace decaylib::scheduling {
namespace {

struct Instance {
  core::DecaySpace space;
  std::vector<sinr::Link> links;

  Instance(int link_count, double box, double alpha, std::uint64_t seed)
      : space(1) {
    geom::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < link_count; ++i) {
      const geom::Vec2 s{rng.Uniform(0.0, box), rng.Uniform(0.0, box)};
      const double angle = rng.Uniform(0.0, 2.0 * M_PI);
      pts.push_back(s);
      pts.push_back(s + geom::Vec2{rng.Uniform(0.5, 1.5), 0.0}.Rotated(angle));
      links.push_back({2 * i, 2 * i + 1});
    }
    space = core::DecaySpace::Geometric(pts, alpha);
  }
};

class SchedulerTest : public ::testing::TestWithParam<Extractor> {};

TEST_P(SchedulerTest, ValidCompleteSchedule) {
  const Instance inst(25, 12.0, 3.0, 1);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const double zeta = std::max(1.0, core::Metricity(inst.space));
  const auto all = sinr::AllLinks(system);
  const Schedule schedule = ScheduleLinks(kernel, zeta, GetParam(), all);
  EXPECT_TRUE(ValidateSchedule(kernel, schedule, all));
  EXPECT_GE(schedule.Length(), 1);
  EXPECT_LE(schedule.Length(), system.NumLinks());
}

INSTANTIATE_TEST_SUITE_P(Extractors, SchedulerTest,
                         ::testing::Values(Extractor::kAlgorithm1,
                                           Extractor::kGreedyFeasible));

TEST(SchedulerTest, SingleLinkSchedulesInOneSlot) {
  const Instance inst(1, 5.0, 3.0, 2);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const Schedule schedule =
      ScheduleLinks(kernel, 3.0, Extractor::kGreedyFeasible,
                    sinr::AllLinks(system));
  EXPECT_EQ(schedule.Length(), 1);
}

TEST(SchedulerTest, WellSeparatedLinksFitOneSlot) {
  // Links far apart: everything schedulable together by the greedy extractor.
  std::vector<geom::Vec2> pts;
  std::vector<sinr::Link> links;
  for (int i = 0; i < 5; ++i) {
    pts.push_back({i * 100.0, 0.0});
    pts.push_back({i * 100.0 + 1.0, 0.0});
    links.push_back({2 * i, 2 * i + 1});
  }
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
  const sinr::LinkSystem system(space, links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const Schedule schedule =
      ScheduleLinks(kernel, 3.0, Extractor::kGreedyFeasible,
                    sinr::AllLinks(system));
  EXPECT_EQ(schedule.Length(), 1);
}

TEST(SchedulerTest, DenseCliqueNeedsManySlots) {
  // All links stacked in a tiny area: most slots hold one link.
  std::vector<geom::Vec2> pts;
  std::vector<sinr::Link> links;
  geom::Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    const geom::Vec2 s{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    pts.push_back(s);
    pts.push_back(s + geom::Vec2{1.0, 0.0});
    links.push_back({2 * i, 2 * i + 1});
  }
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
  const sinr::LinkSystem system(space, links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const Schedule schedule =
      ScheduleLinks(kernel, 3.0, Extractor::kGreedyFeasible,
                    sinr::AllLinks(system));
  EXPECT_GE(schedule.Length(), 3);
  EXPECT_TRUE(ValidateSchedule(kernel, schedule, sinr::AllLinks(system)));
}

TEST(SchedulerTest, ValidateRejectsIncompleteSchedule) {
  const Instance inst(4, 10.0, 3.0, 4);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  Schedule partial;
  partial.slots.push_back({0, 1});
  const auto all = sinr::AllLinks(system);
  EXPECT_FALSE(ValidateSchedule(kernel, partial, all));
}

TEST(SchedulerTest, ValidateRejectsInfeasibleSlot) {
  // Two links on top of each other cannot share a slot.
  std::vector<geom::Vec2> pts{{0, 0}, {1, 0}, {0.1, 0}, {1.1, 0}};
  std::vector<sinr::Link> links{{0, 1}, {2, 3}};
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
  const sinr::LinkSystem system(space, links, {1.5, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  Schedule bad;
  bad.slots.push_back({0, 1});
  const auto all = sinr::AllLinks(system);
  EXPECT_FALSE(ValidateSchedule(kernel, bad, all));
}

TEST(SchedulerTest, SubsetScheduling) {
  const Instance inst(10, 12.0, 3.0, 5);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const std::vector<int> subset{1, 3, 5, 7};
  const Schedule schedule =
      ScheduleLinks(kernel, 3.0, Extractor::kGreedyFeasible, subset);
  EXPECT_TRUE(ValidateSchedule(kernel, schedule, subset));
}

}  // namespace
}  // namespace decaylib::scheduling
