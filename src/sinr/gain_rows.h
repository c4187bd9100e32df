// Receiver-major SINR gain rows: the success checks of the dynamics
// simulators (random access, the regret game).
//
// G[v][u] = power[u] / CrossDecay(u, v) is the very double LinkSystem::Sinr
// adds to receiver v's interference for sender u, and G[v][v] = 0.  A
// success check sums row v over the transmitting set in set order: no
// division per term, and a stride-1 row instead of a column of the
// cross-decay slab.  Summing over all of S instead of skipping v adds the
// receiver's own +0.0 to a sum that is >= +0 (noise and gains are
// non-negative), which changes no bits, so every verdict equals
// LinkSystem::Sinr(v, S, power) >= beta for the kernel's power assignment.
// The table is task-local, over a kernel built with
// KernelSlabs::kCrossDecay, and a row is built the first time its link is
// judged: a regret game fills nearly every row, a lightly loaded random-
// access run only the rows of the links that transmit.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sinr/kernel.h"

namespace decaylib::sinr {

class GainRows {
 public:
  explicit GainRows(const KernelCache& kernel);

  // ok[i] = 1 iff link S[i] meets the SINR threshold beta when exactly the
  // links in S transmit, else 0; `ok` is resized to |S|.  Four receivers
  // share one pass over S, and each receiver's sum still runs in S order.
  void Successes(std::span<const int> S, std::vector<char>& ok);

 private:
  // Row v of G, built on first use.
  const double* Row(int v);
  // LinkSystem::Sinr(v, S) >= beta, given its interference sum.
  char Meets(int v, double interference) const {
    return interference == 0.0 ||
           signal_[static_cast<std::size_t>(v)] / interference >= beta_;
  }

  const KernelCache* kernel_;
  std::size_t n_;
  double noise_;
  double beta_;
  std::vector<double> signal_;  // power[v] / f_vv
  std::vector<char> built_;     // row v of gain_ is written
  std::unique_ptr<double[]> gain_;  // [v*n + u] = G[v][u], unzeroed
};

}  // namespace decaylib::sinr
