// Gain-row success checks: every verdict equals LinkSystem::Sinr >= beta,
// and the two simulations that judge on gain rows -- the regret game and
// the queue's random-access scheduler -- equal their naive oracles as whole
// structs, over coordinate-backed and materialised spaces, with and without
// noise.
#include "sinr/gain_rows.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/decay_space.h"
#include "distributed/regret_game.h"
#include "dynamics/queue_system.h"
#include "geom/rng.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

namespace decaylib::sinr {
namespace {

// Links of length 0.5-2 at uniform positions in a square whose side grows
// as sqrt(n), so every size mixes successes and failures.
std::vector<geom::Vec2> LinkPoints(int n, std::uint64_t seed) {
  geom::Rng rng(seed);
  const double side = 3.0 * std::sqrt(static_cast<double>(n));
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < n; ++i) {
    const geom::Vec2 s{rng.Uniform(0.0, side), rng.Uniform(0.0, side)};
    const double angle = rng.Uniform(0.0, 6.283185307179586);
    const double length = rng.Uniform(0.5, 2.0);
    pts.push_back(s);
    pts.push_back({s.x + length * std::cos(angle),
                   s.y + length * std::sin(angle)});
  }
  return pts;
}

std::vector<Link> Pairs(int n) {
  std::vector<Link> links;
  for (int i = 0; i < n; ++i) links.push_back({2 * i, 2 * i + 1});
  return links;
}

TEST(GainRowsTest, VerdictsEqualLinkSystemSinr) {
  const int n = 40;
  const std::vector<geom::Vec2> pts = LinkPoints(n, 7);
  const core::DecaySpace space = core::DecaySpace::CoordinateBacked(pts, 3.0);
  for (const double noise : {0.0, 0.02}) {
    const LinkSystem system(space, Pairs(n), {1.5, noise});
    for (const double tau : {0.0, 0.5}) {
      const PowerAssignment power =
          tau == 0.0 ? UniformPower(system) : PowerLaw(system, tau);
      const KernelCache kernel(system, power, KernelSlabs::kCrossDecay);
      GainRows gains(kernel);
      geom::Rng rng(11);
      std::vector<char> ok;
      // Set sizes 0..n cover the four-receiver blocks and every tail length.
      for (int size = 0; size <= n; ++size) {
        std::vector<int> S;
        for (int v = 0; v < n; ++v) {
          if (static_cast<int>(S.size()) < size && rng.Chance(0.6)) {
            S.push_back(v);
          }
        }
        gains.Successes(S, ok);
        ASSERT_EQ(ok.size(), S.size());
        for (std::size_t i = 0; i < S.size(); ++i) {
          EXPECT_EQ(ok[i] != 0,
                    system.Sinr(S[i], S, power) >= system.config().beta)
              << "noise " << noise << " tau " << tau << " |S| " << S.size();
        }
      }
    }
  }
}

TEST(GainRowsTest, RegretAndRandomAccessEqualNaiveOracles) {
  for (const int n : {24, 96, 288}) {
    const std::vector<geom::Vec2> pts =
        LinkPoints(n, 100 + static_cast<std::uint64_t>(n));
    const core::DecaySpace coords =
        core::DecaySpace::CoordinateBacked(pts, 3.0);
    const core::DecaySpace dense = core::DecaySpace::Geometric(pts, 3.0);
    for (const core::DecaySpace* space : {&coords, &dense}) {
      for (const double noise : {0.0, 0.01}) {
        const LinkSystem system(*space, Pairs(n), {1.5, noise});
        const KernelCache kernel(system, UniformPower(system),
                                 KernelSlabs::kCrossDecay);
        const std::string where =
            "n " + std::to_string(n) + " noise " + std::to_string(noise) +
            (space->IsCoordinateBacked() ? " coordinates" : " dense");

        distributed::RegretConfig rc;
        rc.rounds = 300;
        rc.measure_tail = 100;
        geom::Rng regret_naive_rng(5);
        const distributed::RegretResult regret_naive =
            distributed::RunRegretGameNaive(system, rc, regret_naive_rng);
        geom::Rng regret_rng(5);
        const distributed::RegretResult regret =
            distributed::RunRegretGame(kernel, rc, regret_rng);
        EXPECT_TRUE(regret == regret_naive) << where;
        EXPECT_GT(regret_naive.average_successes, 0.0) << where;

        dynamics::QueueConfig qc = dynamics::UniformArrivals(
            system, 0.05, dynamics::Scheduler::kRandomAccess, 400);
        qc.random_access_c = 6.0;  // several senders per slot
        geom::Rng queue_naive_rng(6);
        const dynamics::QueueStats queue_naive =
            dynamics::RunQueueSimulationNaive(system, qc, queue_naive_rng);
        geom::Rng queue_rng(6);
        const dynamics::QueueStats queue =
            dynamics::RunQueueSimulation(kernel, qc, queue_rng);
        EXPECT_TRUE(queue == queue_naive) << where;
        EXPECT_GT(queue_naive.served_total, 0) << where;
      }
    }
  }
}

}  // namespace
}  // namespace decaylib::sinr
