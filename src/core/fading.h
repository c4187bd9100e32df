// The fading parameter of a decay space (Definition 3.1) and the annulus
// argument bound (Theorem 2).
//
// A node set X is r-separated iff all pairwise decays exceed r.  The fading
// value of a listener z relative to separation r is
//     gamma_z(r) = r * max over X with X u {z} r-separated of
//                    sum_{x in X} 1 / f(x, z),
// i.e. r times the worst-case total received *gain* at z from an r-separated
// set of uniform-power senders; the fading parameter gamma(r) is the max over
// z.  Interference from an r-separated set S using power P is then at most
// gamma(r) * P / r, and so is the affectance when the intended signal comes
// from an r-neighborhood (Sec. 3).
//
// Note the listener is part of the separated set (X u {z}), exactly as in
// the proof of Theorem 2 ("a listening node x in S", whence S_2 = {} there).
// Without that requirement a sender arbitrarily close to z would make
// gamma_z unbounded and the theorem false; the paper's Sec. 3.4 star example
// also computes gamma this way (the center, at decay r from x_{-1}, is the
// intended transmitter, not an interferer).
//
// Theorem 2: for decay spaces with Assouad dimension A < 1 (fading spaces,
// w.r.t. constant C),  gamma(r) <= C * 2^{A+1} * (zetahat(2 - A) - 1).
//
// The exact maximisation is a maximum-weight independent set in the
// "too close" conflict graph, solved for small n by core::MaxWeightSubset
// (core/branch_and_bound.h) over the candidates, heaviest first; a greedy
// heavy-first estimate serves larger inputs.
#pragma once

#include <span>
#include <vector>

#include "core/decay_space.h"

namespace decaylib::core {

// True iff all pairwise decays within `nodes` strictly exceed r (checked in
// both directions for asymmetric spaces).
bool IsSeparatedNodeSet(const DecaySpace& space, std::span<const int> nodes,
                        double r);

struct FadingValue {
  double gamma = 0.0;             // r * total gain of the best set
  std::vector<int> witness;       // the maximising r-separated sender set
};

// Exact fading value of listener z.  Intended n <= ~48.
FadingValue FadingValueExact(const DecaySpace& space, int z, double r);

// Greedy heavy-first estimate (lower bound on gamma_z(r)).
FadingValue FadingValueGreedy(const DecaySpace& space, int z, double r);

// Fading parameter gamma(r) = max_z gamma_z(r); exact iff `exact`.
double FadingParameter(const DecaySpace& space, double r, bool exact = true);

// The Theorem 2 upper bound C * 2^{A+1} * (zetahat(2-A) - 1); requires A < 1.
double Theorem2Bound(double C, double A);

}  // namespace decaylib::core
