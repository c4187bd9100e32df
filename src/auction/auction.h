// Secondary spectrum auctions over decay spaces (transfer list's [38, 37]).
//
// Bidders are links with private valuations; the auctioneer sells
// transmission rights subject to SINR feasibility.  Hoefer-Kesselheim-
// Vocking's mechanism is: run a monotone greedy winner-determination rule
// (an approximation to weighted capacity whose guarantee is charged to the
// inductive independence rho of the instance), then charge critical-value
// payments, which makes the mechanism truthful.  Everything is
// metric-parameter-only, so by Prop. 1 it transfers to decay spaces.
//
// This module implements the single-channel mechanism:
//   * winner determination: greedy by bid, admit while feasible (a monotone
//     allocation rule -- raising your bid can only help you);
//   * critical-value payments per winner, computed by re-running the rule
//     on the others' bids (binary search over the winner's bid);
//   * utilities / truthfulness checks used by tests and benches.
//
// The hot path runs on a sinr::KernelCache: winner determination admits
// through an AffectanceAccumulator (O(n) per admission instead of the
// naive O(|S| n) re-summation), and the payment bisection re-runs the rule
// ~50 times per winner against the *same* warm kernel, so the whole
// mechanism reads one O(n^2) kernel, built once by the caller.  The
// original per-query implementations survive as the *Naive references, and
// on a uniform-power kernel the cached path is bit-exact against them (the
// kernel admission test decides exactly as the naive push-IsFeasible-pop
// loop -- see kernel.h's bit-exactness contract -- so winner sets, critical
// bids and payments are identical doubles).
#pragma once

#include <span>
#include <vector>

#include "sinr/kernel.h"
#include "sinr/link_system.h"

namespace decaylib::auction {

struct AuctionResult {
  std::vector<int> winners;        // link ids, sorted
  std::vector<double> payments;    // per link; 0 for losers
  double social_welfare = 0.0;     // sum of winning valuations
  double revenue = 0.0;            // sum of payments
};

// Greedy-by-bid winner determination over a warm kernel: scan bids in
// decreasing order, admit while the winner set stays feasible under the
// kernel's power assignment.  Monotone in each bid.
std::vector<int> DetermineWinners(const sinr::KernelCache& kernel,
                                  std::span<const double> bids);

// Full mechanism over a warm kernel: winners + critical-value payments
// (the smallest bid that still wins, holding others fixed; computed by
// bisection to `tol`).
AuctionResult RunAuction(const sinr::KernelCache& kernel,
                         std::span<const double> bids, double tol = 1e-6);

// The critical bid for one link (infimum winning bid against fixed others);
// 0 if the link wins even with an arbitrarily small bid, and +infinity-like
// (max bid * 2) if it cannot win at all.
//
// Probing the link at bid b only moves the link's *position* in the bid
// order -- the other links keep their fixed relative order, and whether the
// link wins is decided the moment the greedy rule reaches it (winners are
// never evicted).  CriticalBid exploits that: each bisection probe maps to
// the link's insertion position, the admission state over the preceding
// others is resumed from a forward-only snapshot instead of replayed from
// scratch, and the win/lose verdict is memoised per position (the verdict
// is monotone in the position, which is the same monotonicity that makes
// the mechanism truthful).  The probe sequence and every admission decision
// are identical to CriticalBidRescan's, so the payment is the same double.
double CriticalBid(const sinr::KernelCache& kernel,
                   std::span<const double> bids, int link, double tol = 1e-6);

// Reference implementation: re-runs full winner determination per bisection
// probe.  Kept as the bit-exactness oracle for CriticalBid.
double CriticalBidRescan(const sinr::KernelCache& kernel,
                         std::span<const double> bids, int link,
                         double tol = 1e-6);

// Naive reference implementations (per-query LinkSystem feasibility under
// uniform power): kept as the test oracles for the cached path, exactly the
// pre-kernel behaviour.
std::vector<int> DetermineWinnersNaive(const sinr::LinkSystem& system,
                                       std::span<const double> bids);
AuctionResult RunAuctionNaive(const sinr::LinkSystem& system,
                              std::span<const double> bids,
                              double tol = 1e-6);
double CriticalBidNaive(const sinr::LinkSystem& system,
                        std::span<const double> bids, int link,
                        double tol = 1e-6);

}  // namespace decaylib::auction
