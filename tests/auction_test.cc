#include "auction/auction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/decay_space.h"
#include "geom/rng.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

namespace decaylib::auction {
namespace {

struct Fixture {
  core::DecaySpace space;
  std::vector<sinr::Link> links;
  std::vector<double> bids;

  Fixture(int n, double box, std::uint64_t seed) : space(1) {
    geom::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
      const geom::Vec2 s{rng.Uniform(0.0, box), rng.Uniform(0.0, box)};
      pts.push_back(s);
      pts.push_back(s + geom::Vec2{1.0, 0.0}.Rotated(rng.Uniform(0.0, 6.28)));
      links.push_back({2 * i, 2 * i + 1});
      bids.push_back(rng.Uniform(1.0, 9.0));
    }
    space = core::DecaySpace::Geometric(pts, 3.0);
  }
};

TEST(AuctionTest, WinnersFormFeasibleSet) {
  const Fixture fixture(12, 14.0, 1);
  const sinr::LinkSystem system(fixture.space, fixture.links, {1.5, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto winners = DetermineWinners(kernel, fixture.bids);
  EXPECT_FALSE(winners.empty());
  EXPECT_TRUE(system.IsFeasible(winners, sinr::UniformPower(system)));
}

TEST(AuctionTest, ZeroBiddersLose) {
  const Fixture fixture(6, 12.0, 2);
  const sinr::LinkSystem system(fixture.space, fixture.links, {1.5, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  std::vector<double> bids(6, 0.0);
  bids[2] = 3.0;
  const auto winners = DetermineWinners(kernel, bids);
  EXPECT_EQ(winners, (std::vector<int>{2}));
}

TEST(AuctionTest, PaymentsAreIndividuallyRational) {
  // Winners pay at most their bid; losers pay nothing.
  const Fixture fixture(10, 12.0, 3);
  const sinr::LinkSystem system(fixture.space, fixture.links, {1.5, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto result = RunAuction(kernel, fixture.bids, 1e-7);
  std::vector<char> is_winner(10, 0);
  for (int v : result.winners) is_winner[static_cast<std::size_t>(v)] = 1;
  for (int v = 0; v < 10; ++v) {
    if (is_winner[static_cast<std::size_t>(v)]) {
      EXPECT_LE(result.payments[static_cast<std::size_t>(v)],
                fixture.bids[static_cast<std::size_t>(v)] + 1e-4)
          << "winner " << v;
      EXPECT_GE(result.payments[static_cast<std::size_t>(v)], 0.0);
    } else {
      EXPECT_DOUBLE_EQ(result.payments[static_cast<std::size_t>(v)], 0.0);
    }
  }
  EXPECT_LE(result.revenue, result.social_welfare + 1e-6);
}

TEST(AuctionTest, CriticalBidIsPivotal) {
  const Fixture fixture(8, 10.0, 4);
  const sinr::LinkSystem system(fixture.space, fixture.links, {1.5, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto winners = DetermineWinners(kernel, fixture.bids);
  ASSERT_FALSE(winners.empty());
  const int v = winners.front();
  const double critical = CriticalBid(kernel, fixture.bids, v, 1e-8);
  std::vector<double> trial = fixture.bids;

  trial[static_cast<std::size_t>(v)] = critical + 1e-4;
  auto w_hi = DetermineWinners(kernel, trial);
  EXPECT_TRUE(std::binary_search(w_hi.begin(), w_hi.end(), v));

  if (critical > 1e-4) {
    trial[static_cast<std::size_t>(v)] = critical - 1e-4;
    auto w_lo = DetermineWinners(kernel, trial);
    EXPECT_FALSE(std::binary_search(w_lo.begin(), w_lo.end(), v));
  }
}

TEST(AuctionTest, IsolatedBidderPaysNothing) {
  // A single link with no competition has critical bid ~ 0.
  core::DecaySpace space(2, 5.0);
  space.SetSymmetric(0, 1, 2.0);
  const sinr::LinkSystem system(space, {{0, 1}}, {1.5, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const std::vector<double> bids{4.0};
  const auto result = RunAuction(kernel, bids, 1e-8);
  ASSERT_EQ(result.winners, (std::vector<int>{0}));
  EXPECT_NEAR(result.payments[0], 0.0, 1e-6);
}

TEST(AuctionTest, BlockedPairChargesCompetitorsBid) {
  // Two crossed links, only one can win: the winner's critical bid is the
  // loser's bid (second-price flavour).
  core::DecaySpace space(4, 1.0);
  space.SetSymmetric(0, 1, 100.0);
  space.SetSymmetric(2, 3, 100.0);
  const sinr::LinkSystem system(space, {{0, 1}, {2, 3}}, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const std::vector<double> bids{7.0, 3.0};
  const auto result = RunAuction(kernel, bids, 1e-8);
  EXPECT_EQ(result.winners, (std::vector<int>{0}));
  EXPECT_NEAR(result.payments[0], 3.0, 1e-4);
}

// The cached mechanism is bit-exact against the naive reference: winner
// sets, critical bids, payments and revenue are identical doubles, with
// and without ambient noise (noise exercises CanOvercomeNoise and the
// c_v != beta noise factors).
TEST(AuctionTest, CachedPathBitExactVsNaive) {
  for (const double noise : {0.0, 0.02}) {
    for (const std::uint64_t seed : {7ull, 8ull, 9ull, 10ull}) {
      const Fixture fixture(12, 12.0, seed);
      const sinr::LinkSystem system(fixture.space, fixture.links,
                                    {1.5, noise});
      const sinr::KernelCache kernel(system, sinr::UniformPower(system));

      const auto naive_winners =
          DetermineWinnersNaive(system, fixture.bids);
      EXPECT_EQ(DetermineWinners(kernel, fixture.bids), naive_winners)
          << "noise=" << noise << " seed=" << seed;

      for (int v = 0; v < 12; v += 5) {
        EXPECT_EQ(CriticalBid(kernel, fixture.bids, v, 1e-7),
                  CriticalBidNaive(system, fixture.bids, v, 1e-7))
            << "noise=" << noise << " seed=" << seed << " link=" << v;
      }

      const AuctionResult cached = RunAuction(kernel, fixture.bids, 1e-6);
      const AuctionResult naive = RunAuctionNaive(system, fixture.bids, 1e-6);
      EXPECT_EQ(cached.winners, naive.winners);
      ASSERT_EQ(cached.payments.size(), naive.payments.size());
      for (std::size_t v = 0; v < cached.payments.size(); ++v) {
        EXPECT_EQ(cached.payments[v], naive.payments[v]) << "link " << v;
      }
      EXPECT_EQ(cached.social_welfare, naive.social_welfare);
      EXPECT_EQ(cached.revenue, naive.revenue);
    }
  }
}

TEST(AuctionTest, ResumedBisectionBitExactVsRescan) {
  // CriticalBid resumes the greedy admission state from the probed link's
  // bid-order position instead of replaying the rule from scratch.  The
  // probe sequence and every admission decision must match the rescanning
  // reference, so the payment is the identical double -- for every link,
  // across noise regimes, seeds, and tolerances.
  for (const double noise : {0.0, 0.02}) {
    for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
      const Fixture fixture(16, 14.0, seed);
      const sinr::LinkSystem system(fixture.space, fixture.links,
                                    {1.5, noise});
      const sinr::KernelCache kernel(system, sinr::UniformPower(system));
      for (const double tol : {1e-4, 1e-7}) {
        for (int v = 0; v < 16; ++v) {
          EXPECT_EQ(CriticalBid(kernel, fixture.bids, v, tol),
                    CriticalBidRescan(kernel, fixture.bids, v, tol))
              << "noise=" << noise << " seed=" << seed << " link=" << v
              << " tol=" << tol;
        }
      }
    }
  }
}

TEST(AuctionTest, ResumedBisectionHandlesTiedBids) {
  // Equal bids stress the insertion-position mapping: the probed link must
  // land at the same position the rescan path's sort gives it, or the two
  // disagree on the admission prefix.
  const Fixture base(10, 12.0, 31);
  std::vector<double> bids = base.bids;
  bids[3] = bids[7];  // exact tie
  bids[1] = bids[5];
  const sinr::LinkSystem system(base.space, base.links, {1.5, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  for (int v = 0; v < 10; ++v) {
    EXPECT_EQ(CriticalBid(kernel, bids, v, 1e-7),
              CriticalBidRescan(kernel, bids, v, 1e-7))
        << "link " << v;
  }
}

TEST(AuctionTest, TruthfulnessSpotCheck) {
  // For sampled alternative bids b' != true value v, utility(truth) >=
  // utility(b') under critical payments (monotone allocation + critical
  // pricing => truthful).
  const Fixture fixture(8, 10.0, 5);
  const sinr::LinkSystem system(fixture.space, fixture.links, {1.5, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const int bidder = 2;
  const double value = fixture.bids[static_cast<std::size_t>(bidder)];

  auto utility = [&](double bid) {
    std::vector<double> bids = fixture.bids;
    bids[static_cast<std::size_t>(bidder)] = bid;
    const auto result = RunAuction(kernel, bids, 1e-8);
    const bool won = std::binary_search(result.winners.begin(),
                                        result.winners.end(), bidder);
    return won ? value - result.payments[static_cast<std::size_t>(bidder)]
               : 0.0;
  };

  const double truthful = utility(value);
  for (const double alt : {0.5, 2.0, 4.0, 8.0, 16.0}) {
    EXPECT_GE(truthful, utility(alt) - 1e-3) << "deviation to " << alt;
  }
}

}  // namespace
}  // namespace decaylib::auction
