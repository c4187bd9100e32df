// Golden digests of the engine's deterministic surface: the FNV-1a digest
// of AggregateSignature over the builtin scenarios and of SweepSignature
// over the builtin sweeps, each shrunk to test size.  A change meant to be
// result-invisible (a refactor of tasks, aggregation or reports) must leave
// both digests as they are; a change that moves one has changed a result,
// a metric's name or order, or the signature text itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/batch_runner.h"
#include "engine/scenario.h"
#include "sweep/sweep.h"
#include "sweep/sweep_runner.h"

namespace decaylib {
namespace {

// FNV-1a, 64-bit, as 16 hex digits.
std::string Fnv1aHex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Every builtin scenario at 12 links x 2 instances with short dynamics,
// plus uniform_dense on the far-field kernel; all tasks.
TEST(GoldenDigestTest, BuiltinScenarioAggregateSignature) {
  std::vector<engine::ScenarioSpec> specs;
  for (engine::ScenarioSpec spec : engine::BuiltinScenarios()) {
    spec.links = 12;
    spec.instances = 2;
    spec.dynamics.queue_slots = 120;
    spec.dynamics.regret_rounds = 120;
    specs.push_back(spec);
  }
  engine::ScenarioSpec farfield = specs.front();
  farfield.name = "uniform_dense_farfield";
  farfield.kernel_mode = engine::KernelMode::kFarField;
  specs.push_back(farfield);

  engine::BatchConfig config;
  config.threads = 2;
  const std::string text =
      engine::AggregateSignature(engine::BatchRunner(config).Run(specs));
  EXPECT_EQ(Fnv1aHex(text), "1b8bb89e3ddea89d") << text;
}

// Every builtin sweep with its links (base and axis) cut to a third,
// 2 instances per cell and short dynamics.
TEST(GoldenDigestTest, BuiltinSweepSignature) {
  sweep::SweepConfig config;
  config.threads = 2;
  std::string text;
  for (sweep::SweepSpec spec : sweep::BuiltinSweeps()) {
    spec.base.links /= 3;
    spec.base.instances = 2;
    spec.base.dynamics.queue_slots = 120;
    spec.base.dynamics.regret_rounds = 120;
    for (sweep::SweepAxis& axis : spec.axes) {
      if (axis.field != "links") continue;
      for (double& links : axis.values) links /= 3;
    }
    text += sweep::SweepSignature(sweep::SweepRunner(config).Run(spec));
  }
  EXPECT_EQ(Fnv1aHex(text), "0b04e3defc3c29a8") << text;
}

}  // namespace
}  // namespace decaylib
