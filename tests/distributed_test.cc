#include "distributed/simulator.h"

#include <gtest/gtest.h>

#include "core/decay_space.h"
#include "distributed/contention.h"
#include "distributed/local_broadcast.h"
#include "distributed/regret_game.h"
#include "geom/samplers.h"
#include "sinr/kernel.h"
#include "sinr/power.h"
#include "spaces/constructions.h"

namespace decaylib::distributed {
namespace {

TEST(RoundSimulatorTest, LoneTransmitterHeardInRange) {
  const core::DecaySpace space = spaces::LineSpace(5, 1.0, 2.0);
  const RoundSimulator sim(space, {1.0, 2.0, 1e-6});
  const std::vector<int> tx{0};
  const auto heard = sim.Round(tx);
  EXPECT_EQ(heard[0], -1);  // transmitter hears nothing
  EXPECT_EQ(heard[1], 0);   // decay 1: strong
  EXPECT_EQ(heard[2], 0);   // decay 4
  // The far node at decay 16: SINR = (1/16)/1e-6 >> beta -- also heard.
  EXPECT_EQ(heard[4], 0);
}

TEST(RoundSimulatorTest, NoiseLimitsRange) {
  const core::DecaySpace space = spaces::LineSpace(5, 1.0, 2.0);
  const RoundSimulator sim(space, {1.0, 2.0, 0.05});
  // Range limit: P/(beta N) = 1/(2*0.05) = 10: nodes with decay <= 10 hear.
  EXPECT_DOUBLE_EQ(sim.MaxNoiseLimitedRange(), 10.0);
  const std::vector<int> tx{0};
  const auto heard = sim.Round(tx);
  EXPECT_EQ(heard[1], 0);    // decay 1
  EXPECT_EQ(heard[3], 0);    // decay 9
  EXPECT_EQ(heard[4], -1);   // decay 16: below threshold
}

TEST(RoundSimulatorTest, TwoNearbyTransmittersCollide) {
  const core::DecaySpace space = spaces::LineSpace(4, 1.0, 2.0);
  const RoundSimulator sim(space, {1.0, 2.0, 0.0});
  // Transmitters at 0 and 1; listener at 2: signals 1 (decay 1) and 1/4,
  // SINR = (1/1)/(1/4) = 4 >= 2 for node 1's signal -- node 2 hears node 1.
  // Listener 3: signals 1/4 (node 1, distance 2... wait node1->node3 decay 4)
  // and 1/9; SINR = (1/4)/(1/9) = 2.25 >= 2: hears node 1.
  const std::vector<int> tx{0, 1};
  const auto heard = sim.Round(tx);
  EXPECT_EQ(heard[2], 1);
  EXPECT_EQ(heard[3], 1);
}

TEST(RoundSimulatorTest, EqualSignalsCollide) {
  const core::DecaySpace space = spaces::UniformSpace(4, 2.0);
  const RoundSimulator sim(space, {1.0, 1.5, 0.0});
  const std::vector<int> tx{0, 1};
  // Listener 2 gets equal power from both: SINR = 1 < 1.5.
  const auto heard = sim.Round(tx);
  EXPECT_EQ(heard[2], -1);
  EXPECT_EQ(heard[3], -1);
}

TEST(RoundSimulatorTest, NeighborhoodByDecay) {
  const core::DecaySpace space = spaces::LineSpace(6, 1.0, 2.0);
  const RoundSimulator sim(space, {1.0, 2.0, 0.0});
  EXPECT_EQ(sim.Neighborhood(0, 4.5), (std::vector<int>{1, 2}));
}

TEST(LocalBroadcastTest, CompletesOnSmallInstance) {
  const core::DecaySpace space = spaces::LineSpace(8, 1.0, 2.0);
  const RoundSimulator sim(space, {1.0, 2.0, 1e-9});
  BroadcastConfig config;
  config.neighborhood_r = 4.5;  // two hops each side
  config.max_rounds = 20000;
  geom::Rng rng(1);
  const BroadcastResult result = RunLocalBroadcast(sim, config, rng);
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.rounds, 0);
  EXPECT_GT(result.deliveries, 0);
  for (int remaining : result.deliveries_remaining) EXPECT_EQ(remaining, 0);
}

TEST(LocalBroadcastTest, FixedProbabilityAlsoCompletes) {
  const core::DecaySpace space = spaces::LineSpace(6, 1.0, 2.0);
  const RoundSimulator sim(space, {1.0, 2.0, 1e-9});
  BroadcastConfig config;
  config.policy = BroadcastPolicy::kFixedProbability;
  config.probability = 0.15;
  config.neighborhood_r = 4.5;
  config.max_rounds = 50000;
  geom::Rng rng(2);
  const BroadcastResult result = RunLocalBroadcast(sim, config, rng);
  EXPECT_TRUE(result.completed);
}

TEST(LocalBroadcastTest, DeterministicGivenSeed) {
  const core::DecaySpace space = spaces::LineSpace(6, 1.0, 2.0);
  const RoundSimulator sim(space, {1.0, 2.0, 1e-9});
  BroadcastConfig config;
  config.neighborhood_r = 4.5;
  geom::Rng rng_a(3);
  geom::Rng rng_b(3);
  const BroadcastResult a = RunLocalBroadcast(sim, config, rng_a);
  const BroadcastResult b = RunLocalBroadcast(sim, config, rng_b);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.transmissions, b.transmissions);
}

TEST(LocalBroadcastTest, RespectsRoundBudget) {
  const core::DecaySpace space = spaces::LineSpace(10, 1.0, 2.0);
  const RoundSimulator sim(space, {1.0, 2.0, 1e-9});
  BroadcastConfig config;
  config.neighborhood_r = 4.5;
  config.max_rounds = 1;
  geom::Rng rng(4);
  const BroadcastResult result = RunLocalBroadcast(sim, config, rng);
  EXPECT_LE(result.rounds, 1);
  EXPECT_FALSE(result.completed);
}

struct LinkFixture {
  core::DecaySpace space;
  std::vector<sinr::Link> links;

  explicit LinkFixture(int link_count, double spread = 10.0) : space(1) {
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < link_count; ++i) {
      pts.push_back({i * spread, 0.0});
      pts.push_back({i * spread + 1.0, 0.0});
      links.push_back({2 * i, 2 * i + 1});
    }
    space = core::DecaySpace::Geometric(pts, 3.0);
  }
};

TEST(ContentionTest, CompletesOnSparseInstance) {
  const LinkFixture fixture(6, 12.0);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  ContentionConfig config;
  geom::Rng rng(5);
  const ContentionResult result =
      RunContentionResolution(system, config, rng);
  EXPECT_TRUE(result.completed);
  for (int slot : result.success_slot) EXPECT_GE(slot, 0);
  EXPECT_LE(result.slots, config.max_slots);
}

TEST(ContentionTest, DenseInstanceTakesLonger) {
  const LinkFixture sparse(6, 30.0);
  const LinkFixture dense(6, 2.0);
  const sinr::LinkSystem sys_sparse(sparse.space, sparse.links, {2.0, 0.0});
  const sinr::LinkSystem sys_dense(dense.space, dense.links, {2.0, 0.0});
  ContentionConfig config;
  geom::Rng rng_a(6);
  geom::Rng rng_b(6);
  const auto slow = RunContentionResolution(sys_dense, config, rng_a);
  const auto fast = RunContentionResolution(sys_sparse, config, rng_b);
  ASSERT_TRUE(fast.completed);
  if (slow.completed) {
    EXPECT_GE(slow.slots, fast.slots);
  }
}

TEST(RegretGameTest, ConvergesToPositiveThroughput) {
  const LinkFixture fixture(8, 15.0);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  RegretConfig config;
  geom::Rng rng(7);
  const RegretResult result = RunRegretGame(kernel, config, rng);
  EXPECT_GT(result.average_successes, 1.0);  // well-separated: most succeed
  EXPECT_LE(result.average_successes, 8.0);
  ASSERT_EQ(result.final_transmit_probability.size(), 8u);
  // Well-separated links should learn to transmit nearly always.
  int eager = 0;
  for (double p : result.final_transmit_probability) {
    if (p > 0.8) ++eager;
  }
  EXPECT_GE(eager, 6);
}

TEST(RegretGameTest, CrowdedLinksBackOff) {
  // All links on top of each other: at most one can succeed per round, so
  // the average throughput must stay near 1 and transmit rates drop.
  std::vector<geom::Vec2> pts;
  std::vector<sinr::Link> links;
  geom::Rng place(8);
  for (int i = 0; i < 6; ++i) {
    const geom::Vec2 s{place.Uniform(0.0, 0.5), place.Uniform(0.0, 0.5)};
    pts.push_back(s);
    pts.push_back(s + geom::Vec2{1.0, 0.0});
    links.push_back({2 * i, 2 * i + 1});
  }
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
  const sinr::LinkSystem system(space, links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  RegretConfig config;
  config.rounds = 4000;
  config.measure_tail = 1000;
  geom::Rng rng(9);
  const RegretResult result = RunRegretGame(kernel, config, rng);
  EXPECT_LE(result.average_successes, 2.0);
}

// The cached path must reproduce the naive reference bit-for-bit at a fixed
// seed: identical randomness stream, identical success verdicts, identical
// tail averages and final transmit probabilities.
TEST(RegretGameTest, CachedPathBitIdenticalToNaive) {
  for (const double spread : {2.0, 15.0}) {  // crowded and well-separated
    const LinkFixture fixture(8, spread);
    const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
    const sinr::KernelCache kernel(system, sinr::UniformPower(system));
    RegretConfig config;
    config.rounds = 800;
    config.measure_tail = 200;
    config.failure_penalty = 0.7;

    geom::Rng rng_naive(31);
    const RegretResult naive = RunRegretGameNaive(system, config, rng_naive);
    geom::Rng rng_cached(31);
    const RegretResult cached = RunRegretGame(kernel, config, rng_cached);
    EXPECT_TRUE(naive == cached);  // whole struct, covers future fields
    EXPECT_EQ(naive.average_successes, cached.average_successes);
    EXPECT_EQ(naive.transmit_rate, cached.transmit_rate);
    EXPECT_EQ(naive.final_transmit_probability,
              cached.final_transmit_probability);
  }
}

// A cross-decay-only kernel must equal the naive path bit for bit at every
// size: small, 128 links, and large.
TEST(RegretGameTest, CrossDecayKernelMatchesNaiveAtEverySize) {
  for (const int links : {24, 128, 288}) {
    const LinkFixture fixture(links, 2.0);
    const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
    ASSERT_EQ(system.NumLinks(), links);
    const sinr::KernelCache kernel(system, sinr::UniformPower(system),
                                   sinr::KernelSlabs::kCrossDecay);
    RegretConfig config;
    config.rounds = 200;
    config.measure_tail = 50;
    config.failure_penalty = 0.7;

    geom::Rng rng_naive(41);
    const RegretResult naive = RunRegretGameNaive(system, config, rng_naive);
    geom::Rng rng_cached(41);
    const RegretResult cached = RunRegretGame(kernel, config, rng_cached);
    EXPECT_TRUE(cached == naive) << links;
    EXPECT_GT(naive.average_successes, 0.0) << links;
  }
}

}  // namespace
}  // namespace decaylib::distributed
