// Concurrency regression schedules for the TSan CI gate.
//
// The full ctest suite, pooled CLI runs included, runs race-free under
// ThreadSanitizer (PR 10's audit), but TSan can only indict schedules that
// actually execute.  These tests pin the three shared-state paths the audit
// called out, each driven through a barrier so every run maximises
// contention on the exact first-touch / cold-slot / error-capture windows:
//
//   * obs::Registry handle creation -- every prior test created instruments
//     before spawning workers; here N threads race the first GetCounter /
//     GetGauge / GetHistogram for the same names.  A registry whose map
//     mutation were unlocked (or whose returned references moved on rehash)
//     fails here under TSan, and the stable-handle assertions fail anywhere.
//   * engine::GeometryCache cold Acquire -- workers fill distinct instance
//     slots of one prepared generation concurrently; slots must neither
//     move (heap-slot contract) nor share accounting non-atomically.  And
//     two cells that share a key (the pooled sweep runs them at once)
//     acquire the same cold slot concurrently: it is built exactly once.
//   * BatchRunner error capture -- a worker that throws records its failure
//     while siblings keep stealing; the rethrown error must be the lowest
//     failed index regardless of schedule (thread-count-deterministic
//     errors are part of the robustness contract).
#include <barrier>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/status.h"
#include "engine/batch_runner.h"
#include "engine/scenario.h"
#include "obs/registry.h"

namespace decaylib {
namespace {

constexpr int kThreads = 8;

class ConcurrencyRegressionTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::SetEnabled(false); }
};

TEST_F(ConcurrencyRegressionTest, RegistryFirstTouchHandleCreationIsRaceFree) {
  obs::SetEnabled(true);
  constexpr int kAdds = 2000;
  std::barrier gate(kThreads);
  std::vector<obs::Counter*> handles(kThreads, nullptr);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      gate.arrive_and_wait();
      // Every thread races the first touch of the same instrument name.
      obs::Counter& counter =
          obs::Registry::Global().GetCounter("conc.first_touch_counter");
      handles[static_cast<std::size_t>(t)] = &counter;
      for (int i = 0; i < kAdds; ++i) counter.Add();
    });
  }
  for (std::thread& t : pool) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[0], handles[static_cast<std::size_t>(t)])
        << "GetCounter must hand every racer the same stable instrument";
  }
  // The counter may survive from a previous test binary invocation of this
  // name, so reset-then-recount would race the assertion; instead require
  // at least this run's adds and exactness modulo prior runs' multiples.
  EXPECT_GE(handles[0]->value(), static_cast<long long>(kThreads) * kAdds);
  EXPECT_EQ(handles[0]->value() % (static_cast<long long>(kThreads) * kAdds),
            0);
}

TEST_F(ConcurrencyRegressionTest, RegistryMixedKindCreationUnderContention) {
  obs::SetEnabled(true);
  std::barrier gate(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      gate.arrive_and_wait();
      // Distinct names force concurrent map insertions of all three kinds.
      const std::string suffix = std::to_string(t);
      obs::Registry::Global().GetCounter("conc.mixed_counter_" + suffix).Add();
      obs::Registry::Global().GetGauge("conc.mixed_gauge_" + suffix).Set(1.0);
      obs::Registry::Global()
          .GetHistogram("conc.mixed_histogram_" + suffix)
          .Observe(1.0);
    });
  }
  for (std::thread& t : pool) t.join();
  const std::map<std::string, long long> counters =
      obs::Registry::Global().CounterValues();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counters.count("conc.mixed_counter_" + std::to_string(t)), 1u);
  }
}

TEST_F(ConcurrencyRegressionTest, GeometryCacheColdAcquireFillsSlotsRaceFree) {
  engine::ScenarioSpec spec;
  spec.name = "conc_geometry";
  spec.links = 12;
  spec.instances = kThreads;
  spec.seed = 77;

  engine::GeometryCache cache;
  cache.SetGenerations(2);
  cache.Prepare(spec);

  std::barrier gate(kThreads);
  std::vector<const engine::ScenarioGeometry*> first(kThreads, nullptr);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      gate.arrive_and_wait();
      bool built = false;
      first[static_cast<std::size_t>(t)] =
          &cache.Acquire(spec, t, engine::PairingMode::kAuto, &built);
      EXPECT_TRUE(built) << "cold acquire of slot " << t;
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(cache.builds(), kThreads);
  EXPECT_EQ(cache.reuses(), 0);

  // Second concurrent round: every slot is warm, references must be stable
  // (heap-allocated slots may never move under growth or reuse).
  std::barrier gate2(kThreads);
  std::vector<std::thread> pool2;
  for (int t = 0; t < kThreads; ++t) {
    pool2.emplace_back([&, t] {
      gate2.arrive_and_wait();
      bool built = true;
      const engine::ScenarioGeometry* again =
          &cache.Acquire(spec, t, engine::PairingMode::kAuto, &built);
      EXPECT_FALSE(built) << "slot " << t << " must be warm";
      EXPECT_EQ(again, first[static_cast<std::size_t>(t)]);
    });
  }
  for (std::thread& t : pool2) t.join();
  EXPECT_EQ(cache.builds(), kThreads);
  EXPECT_EQ(cache.reuses(), kThreads);
}

TEST_F(ConcurrencyRegressionTest, GeometryCacheSharedSlotIsBuiltOnce) {
  // Two cells of one key: they differ in beta only.  A measured zeta makes
  // the slot's metricity scan a second once-only step.
  engine::ScenarioSpec first;
  first.name = "conc_shared_slot";
  first.links = 16;
  first.instances = 1;
  first.seed = 31;
  first.zeta = -1.0;
  engine::ScenarioSpec second = first;
  second.beta = 1.5;
  ASSERT_EQ(engine::GeometryKeyOf(first), engine::GeometryKeyOf(second));

  engine::GeometryCache cache;
  const engine::GeometryCache::Lease a = cache.Adopt(first);
  const engine::GeometryCache::Lease b = cache.Adopt(second);
  EXPECT_EQ(cache.generation_hits(), 1);

  std::barrier gate(kThreads);
  std::vector<const engine::ScenarioGeometry*> seen(kThreads, nullptr);
  std::vector<char> built(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      gate.arrive_and_wait();
      // Odd threads acquire through the second cell's lease.
      const engine::GeometryCache::Lease& lease = t % 2 == 0 ? a : b;
      const engine::ScenarioSpec& spec = t % 2 == 0 ? first : second;
      bool fresh = false;
      seen[static_cast<std::size_t>(t)] =
          &lease.Acquire(spec, 0, engine::PairingMode::kAuto, &fresh);
      built[static_cast<std::size_t>(t)] = fresh ? 1 : 0;
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(cache.builds(), 1);
  EXPECT_EQ(cache.reuses(), kThreads - 1);
  // The first cell's lease owns the slot, so it alone reports the build,
  // once -- whichever worker sampled the slot.
  int built_first = 0;
  int built_second = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]) << t;
    (t % 2 == 0 ? built_first : built_second) +=
        built[static_cast<std::size_t>(t)];
  }
  EXPECT_EQ(built_first, 1);
  EXPECT_EQ(built_second, 0);
  EXPECT_TRUE(seen[0]->zeta_measured);
}

TEST_F(ConcurrencyRegressionTest, PooledErrorCaptureIsScheduleDeterministic) {
  engine::ScenarioSpec spec;
  spec.name = "conc_fault";
  spec.links = 8;
  spec.instances = 12;
  spec.seed = 99;

  const auto capture = [&](int threads) -> std::string {
    engine::BatchConfig config;
    config.threads = threads;
    config.fault_instance = 3;
    config.fault_message = "conc capture probe";
    const engine::BatchRunner runner(config);
    try {
      (void)runner.RunOne(spec);
    } catch (const core::StatusError& e) {
      return e.status().ToString();
    }
    ADD_FAILURE() << "expected the armed fault to surface as StatusError";
    return {};
  };

  const std::string serial = capture(1);
  ASSERT_FALSE(serial.empty());
  // Same error text from a serial run and repeated pooled runs: the capture
  // path (per-slot record + lowest-failed-index rethrow after join) must be
  // independent of worker interleaving.
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(capture(kThreads), serial) << "round " << round;
  }
}

}  // namespace
}  // namespace decaylib
