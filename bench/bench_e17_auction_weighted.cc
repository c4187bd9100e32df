// E17 -- Weighted capacity and spectrum auctions (transfer list [26, 43,
// 38, 37]).
//
// Weighted capacity heuristics vs exact maximum weight across alpha, and
// the truthful spectrum auction's welfare/revenue across environments: both
// families are parameterised by metric properties only (rho, zeta) and so
// carry over to decay spaces unchanged.
#include <cstdio>

#include "auction/auction.h"
#include "bench_util.h"
#include "capacity/weighted.h"
#include "core/metricity.h"
#include "env/propagation.h"
#include "sinr/power.h"

using namespace decaylib;

int main() {
  bench::Banner("E17", "Weighted capacity + spectrum auctions",
                "weighted capacity & truthful auctions transfer with "
                "alpha -> zeta ([26, 43, 38, 37])");

  {
    std::printf("\n(a) Weighted capacity vs exact (14 links, mean of 5 "
                "seeds)\n\n");
    bench::Table table({"alpha", "OPT weight", "greedy", "w-alg1",
                        "OPT/greedy", "OPT/w-alg1"});
    for (const double alpha : {2.0, 3.0, 4.0, 6.0}) {
      double opt = 0.0;
      double greedy = 0.0;
      double alg1 = 0.0;
      const int trials = 5;
      for (std::uint64_t seed = 1; seed <= trials; ++seed) {
        geom::Rng rng(seed * 3);
        bench::PlanarDeployment dep(14, 12.0, 0.6, 1.4, rng);
        const core::DecaySpace space =
            core::DecaySpace::Geometric(dep.points, alpha);
        const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
        std::vector<double> weights;
        for (int i = 0; i < 14; ++i) weights.push_back(rng.Uniform(1.0, 10.0));
        const double zeta = std::max(1.0, core::Metricity(space));
        opt += capacity::ExactWeightedCapacity(system, weights).weight;
        const sinr::KernelCache kernel(system, sinr::UniformPower(system));
        greedy += capacity::WeightedGreedy(kernel, weights).weight;
        alg1 += capacity::WeightedAlgorithm1(kernel, weights, zeta).weight;
      }
      table.AddRow({bench::Fmt(alpha, 1), bench::Fmt(opt / trials, 1),
                    bench::Fmt(greedy / trials, 1),
                    bench::Fmt(alg1 / trials, 1),
                    bench::Fmt(opt / std::max(1.0, greedy), 2),
                    bench::Fmt(opt / std::max(1.0, alg1), 2)});
    }
    table.Print();
  }

  {
    std::printf("\n(b) Truthful auction across environments (12 bidders)\n\n");
    bench::Table table({"environment", "zeta", "winners", "welfare",
                        "revenue", "rev/welfare"});
    geom::Rng rng(9);
    bench::PlanarDeployment dep(12, 7.0, 0.8, 1.6, rng);  // dense: real competition
    std::vector<double> bids;
    for (int i = 0; i < 12; ++i) bids.push_back(rng.Uniform(1.0, 9.0));
    env::PropagationConfig config;
    config.alpha = 3.0;
    for (const int rooms : {0, 2, 4}) {
      env::Environment environment =
          rooms == 0 ? env::Environment()
                     : env::Environment::OfficeGrid(20.0, 20.0, rooms, rooms);
      const core::DecaySpace space = env::BuildDecaySpace(
          environment, config, env::PlaceIsotropic(dep.points));
      const sinr::LinkSystem system(space, dep.links, {2.0, 0.0});
      const auto result = auction::RunAuction(
          sinr::KernelCache(system, sinr::UniformPower(system)), bids);
      char name[32];
      std::snprintf(name, sizeof(name),
                    rooms == 0 ? "free space" : "office %dx%d", rooms, rooms);
      table.AddRow({name, bench::Fmt(core::Metricity(space), 2),
                    bench::FmtInt(static_cast<long long>(
                        result.winners.size())),
                    bench::Fmt(result.social_welfare, 1),
                    bench::Fmt(result.revenue, 1),
                    bench::Fmt(result.revenue /
                               std::max(1e-9, result.social_welfare), 2)});
    }
    table.Print();
  }

  std::printf(
      "\nExpected shape: weighted OPT/heuristic ratios stay small constants "
      "across alpha;\nwalls (higher zeta) shrink the winner set; revenue "
      "stays below welfare (individual\nrationality) on every row.\n");
  return 0;
}
