#include "dynamics/queue_system.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/decay_space.h"
#include "geom/point.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

namespace decaylib::dynamics {
namespace {

// Well-separated links: every subset feasible, so per-slot service capacity
// equals the number of backlogged links.
struct SparseFixture {
  core::DecaySpace space;
  std::vector<sinr::Link> links;

  explicit SparseFixture(int n, double spread = 50.0) : space(1) {
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
      pts.push_back({i * spread, 0.0});
      pts.push_back({i * spread + 1.0, 0.0});
      links.push_back({2 * i, 2 * i + 1});
    }
    space = core::DecaySpace::Geometric(pts, 3.0);
  }
};

// All links stacked: at most one can be served per slot.
struct DenseFixture {
  core::DecaySpace space;
  std::vector<sinr::Link> links;

  explicit DenseFixture(int n) : space(1) {
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
      pts.push_back({0.0, i * 0.05});
      pts.push_back({1.0, i * 0.05});
      links.push_back({2 * i, 2 * i + 1});
    }
    space = core::DecaySpace::Geometric(pts, 3.0);
  }
};

TEST(QueueSystemTest, SparseSystemIsStableAtHighLoad) {
  const SparseFixture fixture(6);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(1);
  const auto config =
      UniformArrivals(system, 0.8, Scheduler::kLongestQueueFirst, 4000);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_LT(stats.mean_queue, 10.0);               // bounded backlog
  EXPECT_NEAR(stats.throughput, 6 * 0.8, 0.3);     // serves what arrives
  EXPECT_LT(stats.backlog_growth, 2.0);
}

TEST(QueueSystemTest, DenseSystemUnstableAboveOnePacketPerSlot) {
  const DenseFixture fixture(5);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(2);
  // Offered load 5 * 0.5 = 2.5 packets/slot >> 1 servable.
  const auto config =
      UniformArrivals(system, 0.5, Scheduler::kLongestQueueFirst, 4000);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_NEAR(stats.throughput, 1.0, 0.1);  // capacity is one per slot
  EXPECT_GT(stats.backlog_growth, 1.2);     // queues keep growing
  EXPECT_GT(stats.mean_queue, 100.0);
}

TEST(QueueSystemTest, DenseSystemStableBelowCapacity) {
  const DenseFixture fixture(5);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(3);
  // Offered load 5 * 0.15 = 0.75 < 1.
  const auto config =
      UniformArrivals(system, 0.15, Scheduler::kLongestQueueFirst, 6000);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_NEAR(stats.throughput, 0.75, 0.1);
  EXPECT_LT(stats.backlog_growth, 1.5);
}

TEST(QueueSystemTest, ConservationLaw) {
  const SparseFixture fixture(4);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(4);
  const auto config =
      UniformArrivals(system, 0.4, Scheduler::kGreedyByDecay, 2000);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  const long long remaining = std::accumulate(stats.final_queues.begin(),
                                              stats.final_queues.end(), 0LL);
  EXPECT_EQ(stats.arrived_total, stats.served_total + remaining);
}

TEST(QueueSystemTest, RandomAccessServesSparseTraffic) {
  const SparseFixture fixture(5);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(5);
  auto config = UniformArrivals(system, 0.05, Scheduler::kRandomAccess, 6000);
  config.random_access_c = 1.0;
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_GT(stats.throughput, 0.15);       // serves most of the 0.25 offered
  EXPECT_LT(stats.backlog_growth, 3.0);
}

TEST(QueueSystemTest, LongestQueueFirstBeatsObliviousGreedyWhenAsymmetric) {
  // Unequal arrival rates: backlog-aware scheduling keeps the loaded link's
  // queue shorter than oblivious decay-order greedy does.
  const DenseFixture fixture(3);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  QueueConfig config;
  config.arrival_rates = {0.6, 0.05, 0.05};
  config.slots = 6000;
  config.scheduler = Scheduler::kLongestQueueFirst;
  geom::Rng rng_a(6);
  const QueueStats lqf = RunQueueSimulation(kernel, config, rng_a);
  config.scheduler = Scheduler::kGreedyByDecay;
  geom::Rng rng_b(6);
  const QueueStats greedy = RunQueueSimulation(kernel, config, rng_b);
  EXPECT_LE(lqf.mean_queue, greedy.mean_queue * 1.5);
  EXPECT_GT(lqf.throughput, 0.5);
}

TEST(QueueSystemTest, ZeroArrivalsZeroEverything) {
  const SparseFixture fixture(3);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(7);
  const auto config =
      UniformArrivals(system, 0.0, Scheduler::kLongestQueueFirst, 500);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_EQ(stats.arrived_total, 0);
  EXPECT_EQ(stats.served_total, 0);
  EXPECT_DOUBLE_EQ(stats.mean_queue, 0.0);
}

// Regression: slots < 4 used to put every slot in the "fourth quarter"
// bucket (quarter == 0), so any backlog at all made backlog_growth read
// 1e9 -- an instability verdict off a three-slot run.  Short runs now
// report the neutral 1.0.
TEST(QueueSystemTest, BacklogGrowthNeutralOnShortRuns) {
  const DenseFixture fixture(4);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(11);
  const auto config =
      UniformArrivals(system, 0.9, Scheduler::kLongestQueueFirst, 3);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_GT(stats.arrived_total, 0);  // the run did see backlog
  EXPECT_DOUBLE_EQ(stats.backlog_growth, 1.0);
}

// Out-of-range arrival rates must be rejected, not silently clamped inside
// Rng::Chance (which would distort the Bernoulli process).
TEST(QueueSystemDeathTest, ArrivalRatesOutsideUnitIntervalRejected) {
  const SparseFixture fixture(3);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  QueueConfig config;
  config.arrival_rates = {0.5, 1.5, 0.5};
  config.slots = 100;
  config.warmup = 10;
  geom::Rng rng(12);
  EXPECT_DEATH(RunQueueSimulation(kernel, config, rng), "Bernoulli");
  config.arrival_rates = {0.5, -0.1, 0.5};
  EXPECT_DEATH(RunQueueSimulation(kernel, config, rng), "Bernoulli");
  EXPECT_DEATH(
      UniformArrivals(system, 1.2, Scheduler::kLongestQueueFirst, 100),
      "Bernoulli");
}

// Warmup accounting: the *_measured counters are exactly the events behind
// the reported rates, the *_total counters cover the whole run, and the
// conservation law holds for the totals.
TEST(QueueSystemTest, WarmupCountersAreConsistent) {
  const SparseFixture fixture(4);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(13);
  const auto config =
      UniformArrivals(system, 0.5, Scheduler::kLongestQueueFirst, 2000);
  ASSERT_EQ(config.warmup, 200);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_GE(stats.served_total, stats.served_measured);
  EXPECT_GE(stats.arrived_total, stats.arrived_measured);
  EXPECT_GT(stats.served_measured, 0);
  // throughput is defined over the measurement window, bit-for-bit.
  EXPECT_EQ(stats.throughput,
            static_cast<double>(stats.served_measured) /
                (config.slots - config.warmup));
  const long long remaining = std::accumulate(stats.final_queues.begin(),
                                              stats.final_queues.end(), 0LL);
  EXPECT_EQ(stats.arrived_total, stats.served_total + remaining);
}

void ExpectSameStats(const QueueStats& a, const QueueStats& b) {
  // Whole-struct equality (defaulted operator==) keeps the gate covering
  // fields this helper does not yet name; the field checks below localise
  // a failure.
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.mean_queue, b.mean_queue);
  EXPECT_EQ(a.mean_delay, b.mean_delay);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.served_total, b.served_total);
  EXPECT_EQ(a.arrived_total, b.arrived_total);
  EXPECT_EQ(a.served_measured, b.served_measured);
  EXPECT_EQ(a.arrived_measured, b.arrived_measured);
  EXPECT_EQ(a.final_queues, b.final_queues);
  EXPECT_EQ(a.backlog_growth, b.backlog_growth);
}

// The cached path must reproduce the naive reference bit-for-bit at a fixed
// seed: identical randomness stream, identical admission decisions,
// identical statistics -- for every scheduler, on both a feasible-everywhere
// and a contention-heavy deployment, with and without ambient noise.
TEST(QueueSystemTest, CachedPathBitIdenticalToNaive) {
  const SparseFixture sparse(5);
  const DenseFixture dense(5);
  struct Case {
    const core::DecaySpace* space;
    const std::vector<sinr::Link>* links;
    sinr::SinrConfig config;
    double lambda;
  };
  const std::vector<Case> cases = {
      {&sparse.space, &sparse.links, {2.0, 0.0}, 0.6},
      {&dense.space, &dense.links, {2.0, 0.0}, 0.3},
      {&sparse.space, &sparse.links, {2.0, 1e-4}, 0.4},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const sinr::LinkSystem system(*cases[c].space, *cases[c].links,
                                  cases[c].config);
    const sinr::KernelCache kernel(system, sinr::UniformPower(system));
    for (const Scheduler scheduler :
         {Scheduler::kLongestQueueFirst, Scheduler::kGreedyByDecay,
          Scheduler::kRandomAccess}) {
      SCOPED_TRACE(testing::Message()
                   << "case " << c << " scheduler "
                   << SchedulerName(scheduler));
      const auto config =
          UniformArrivals(system, cases[c].lambda, scheduler, 600);
      geom::Rng rng_naive(21);
      const QueueStats naive =
          RunQueueSimulationNaive(system, config, rng_naive);
      geom::Rng rng_cached(21);
      const QueueStats cached = RunQueueSimulation(kernel, config, rng_cached);
      ExpectSameStats(naive, cached);
    }
  }
}

TEST(QueueSystemTest, SchedulerNamesRoundTrip) {
  EXPECT_EQ(SchedulerNames().size(), 3u);
  for (const Scheduler scheduler :
       {Scheduler::kLongestQueueFirst, Scheduler::kGreedyByDecay,
        Scheduler::kRandomAccess}) {
    const auto parsed = SchedulerFromName(SchedulerName(scheduler));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, scheduler);
  }
  EXPECT_FALSE(SchedulerFromName("no_such_scheduler").has_value());
}

}  // namespace
}  // namespace decaylib::dynamics
