#include "auction/auction.h"

#include <algorithm>
#include <numeric>

#include "core/check.h"
#include "sinr/power.h"

namespace decaylib::auction {

namespace {

// Deterministic tie-breaking: higher bid first, then lower id.
std::vector<int> BidOrder(std::span<const double> bids) {
  std::vector<int> order(bids.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return bids[static_cast<std::size_t>(a)] >
           bids[static_cast<std::size_t>(b)];
  });
  return order;
}

// The critical-value bisection, shared by the cached and naive paths so
// both produce the identical sequence of probes (and hence the identical
// rounded payment).  `wins_with(bid)` must answer whether `link` wins when
// bidding `bid`, holding the other bids fixed.
template <typename WinsWith>
double BisectCriticalBid(std::span<const double> bids, double tol,
                         WinsWith&& wins_with) {
  const double max_bid = *std::max_element(bids.begin(), bids.end()) + 1.0;
  if (!wins_with(2.0 * max_bid)) return 2.0 * max_bid;  // cannot win
  double lo = 0.0;
  double hi = 2.0 * max_bid;
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    if (wins_with(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

// Winners + payments from any winner-determination / critical-bid pair;
// the accumulation order (sorted winners) is shared so welfare and revenue
// sums associate identically on every path.
template <typename Winners, typename Critical>
AuctionResult RunMechanism(std::span<const double> bids, Winners&& winners,
                           Critical&& critical) {
  AuctionResult result;
  result.winners = winners(bids);
  result.payments.assign(bids.size(), 0.0);
  for (int v : result.winners) {
    result.social_welfare += bids[static_cast<std::size_t>(v)];
    const double payment = critical(bids, v);
    result.payments[static_cast<std::size_t>(v)] = payment;
    result.revenue += payment;
  }
  return result;
}

}  // namespace

// --- cached path -------------------------------------------------------------

std::vector<int> DetermineWinners(const sinr::KernelCache& kernel,
                                  std::span<const double> bids) {
  DL_CHECK(static_cast<int>(bids.size()) == kernel.NumLinks(),
           "one bid per link");
  // Admission through the accumulator decides exactly as the naive
  // push-IsFeasible-pop loop (kernel.h): the candidate's in-affectance is
  // the running raw sum and each member's new total is its running sum
  // plus the candidate's row entry, associated in admission order.
  sinr::AffectanceAccumulator admitted(kernel);
  for (int v : BidOrder(bids)) {
    if (bids[static_cast<std::size_t>(v)] <= 0.0) continue;
    if (!kernel.CanOvercomeNoise(v)) continue;
    if (admitted.CanAddFeasibly(v)) admitted.Add(v);
  }
  std::vector<int> winners = admitted.members();
  std::sort(winners.begin(), winners.end());
  return winners;
}

double CriticalBidRescan(const sinr::KernelCache& kernel,
                         std::span<const double> bids, int link, double tol) {
  DL_CHECK(link >= 0 && link < kernel.NumLinks(), "link out of range");
  std::vector<double> trial(bids.begin(), bids.end());
  return BisectCriticalBid(bids, tol, [&](double bid) {
    trial[static_cast<std::size_t>(link)] = bid;
    const auto winners = DetermineWinners(kernel, trial);
    return std::binary_search(winners.begin(), winners.end(), link);
  });
}

double CriticalBid(const sinr::KernelCache& kernel,
                   std::span<const double> bids, int link, double tol) {
  DL_CHECK(link >= 0 && link < kernel.NumLinks(), "link out of range");
  // The others' relative order is fixed across probes: stable_sort keeps it
  // whatever the link bids, so the trial order is always `others` with the
  // link spliced in at position p(bid) = #others preceding it.  An other o
  // precedes the link at bid b iff bids[o] > b, or bids[o] == b and o has
  // the smaller id (stable tie-break on original index).  That predicate is
  // monotone along `others` (sorted by bid desc, ties by id asc), so p(bid)
  // is a partition point.
  std::vector<int> others = BidOrder(bids);
  others.erase(std::find(others.begin(), others.end(), link));
  const int m = static_cast<int>(others.size());

  // Forward-only admission snapshot over the first base_pos others.  A
  // winning probe at position p tells us every later probe sits at a
  // position >= p (the bisection only lowers the bid after a win), so the
  // snapshot can safely advance to p; a losing probe leaves it in place.
  sinr::AffectanceAccumulator base(kernel);
  sinr::AffectanceAccumulator probe(kernel);
  int base_pos = 0;
  int known_win = -1;    // largest position with a winning verdict
  int known_lose = m + 1;  // smallest position with a losing verdict

  // Replays DetermineWinners' loop body over others[from, to).
  const auto advance = [&](sinr::AffectanceAccumulator& acc, int from, int to) {
    for (int i = from; i < to; ++i) {
      const int o = others[static_cast<std::size_t>(i)];
      if (bids[static_cast<std::size_t>(o)] <= 0.0) continue;
      if (!kernel.CanOvercomeNoise(o)) continue;
      if (acc.CanAddFeasibly(o)) acc.Add(o);
    }
  };

  return BisectCriticalBid(bids, tol, [&](double bid) {
    // Same per-link skips DetermineWinners applies when it reaches the link.
    if (bid <= 0.0) return false;
    if (!kernel.CanOvercomeNoise(link)) return false;
    const int p = static_cast<int>(
        std::partition_point(others.begin(), others.end(),
                             [&](int o) {
                               const double ob =
                                   bids[static_cast<std::size_t>(o)];
                               return ob > bid || (ob == bid && o < link);
                             }) -
        others.begin());
    // The verdict is monotone in p: a later position only adds members, and
    // affectance sums only grow, so admission can only flip win -> lose.
    if (p <= known_win) return true;
    if (p >= known_lose) return false;
    probe = base;
    advance(probe, base_pos, p);
    const bool win = probe.CanAddFeasibly(link);
    if (win) {
      known_win = p;
      std::swap(base, probe);
      base_pos = p;
    } else {
      known_lose = p;
    }
    return win;
  });
}

AuctionResult RunAuction(const sinr::KernelCache& kernel,
                         std::span<const double> bids, double tol) {
  return RunMechanism(
      bids,
      [&](std::span<const double> b) { return DetermineWinners(kernel, b); },
      [&](std::span<const double> b, int v) {
        return CriticalBid(kernel, b, v, tol);
      });
}

// --- naive references --------------------------------------------------------

std::vector<int> DetermineWinnersNaive(const sinr::LinkSystem& system,
                                       std::span<const double> bids) {
  DL_CHECK(static_cast<int>(bids.size()) == system.NumLinks(),
           "one bid per link");
  const sinr::PowerAssignment power = sinr::UniformPower(system);
  std::vector<int> winners;
  for (int v : BidOrder(bids)) {
    if (bids[static_cast<std::size_t>(v)] <= 0.0) continue;
    if (!system.CanOvercomeNoise(v, power)) continue;
    winners.push_back(v);
    if (!system.IsFeasible(winners, power)) winners.pop_back();
  }
  std::sort(winners.begin(), winners.end());
  return winners;
}

double CriticalBidNaive(const sinr::LinkSystem& system,
                        std::span<const double> bids, int link, double tol) {
  DL_CHECK(link >= 0 && link < system.NumLinks(), "link out of range");
  std::vector<double> trial(bids.begin(), bids.end());
  return BisectCriticalBid(bids, tol, [&](double bid) {
    trial[static_cast<std::size_t>(link)] = bid;
    const auto winners = DetermineWinnersNaive(system, trial);
    return std::binary_search(winners.begin(), winners.end(), link);
  });
}

AuctionResult RunAuctionNaive(const sinr::LinkSystem& system,
                              std::span<const double> bids, double tol) {
  return RunMechanism(
      bids,
      [&](std::span<const double> b) {
        return DetermineWinnersNaive(system, b);
      },
      [&](std::span<const double> b, int v) {
        return CriticalBidNaive(system, b, v, tol);
      });
}

}  // namespace decaylib::auction
