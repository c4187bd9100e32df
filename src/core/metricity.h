// Metricity parameters of decay spaces (Definition 2.2 and Sec. 4.2).
//
// The metricity zeta(D) is the smallest number such that, for every triplet
// x, y, z:   f(x,y)^{1/zeta} <= f(x,z)^{1/zeta} + f(z,y)^{1/zeta}.
// It measures how far the decay space is from satisfying the triangle
// inequality; in the geometric case f = d^alpha, zeta = alpha (witnessed by
// collinear triplets).  zeta is well defined: lg(max f / min f) always
// satisfies the inequality (paper, after Def. 2.2).
//
// The variant parameter from Sec. 4.2 is the smallest phi_factor such that
// f(x,z) <= phi_factor * (f(x,y) + f(y,z)) for all triplets (a relaxed
// triangle inequality); phi = lg(phi_factor).  Note: the displayed formula in
// the arXiv text has the ratio inverted relative to this verbal definition;
// we implement the verbal definition, which matches all the paper's examples
// (e.g. f_ab = 1, f_bc = q, f_ac = 2q gives phi <= 2 for all q).
//
// Relation between the parameters: the paper's own derivation shows
// f(u,v) <= 2^zeta (f(u,w) + f(w,v)), i.e. phi <= zeta (the statement
// "zeta <= phi" in the text is a typo: the 3-point example above has bounded
// phi and unbounded zeta, so the inequality can only hold in this direction).
// Tests verify phi <= zeta on random spaces.
//
// ComputeMetricity and ComputePhi are the dominant O(n^3) costs of the
// experiment suite.  Each is one serial scan in flat row-major order over
// the raw decay matrix (a local materialised copy when the space is
// coordinate-backed) that prunes triples against the running incumbent
// before solving them; callers that want parallelism run several scans at
// once (BatchRunner's pool measures one space per worker).  Pruning is
// sound because h(s) = (b/a)^s + (c/a)^s - 1 is strictly decreasing: a
// triplet can only beat the incumbent zeta_best if h(1/zeta_best) < 0.
// Every prune carries a tolerance slack, so the optimised scans return the
// *same* extremum and the same witness triplet as the naive references --
// exactly, not approximately; the equality tests compare with EXPECT_EQ.
// The *Naive variants keep the original exhaustive scans as the reference
// path for those tests.
#pragma once

#include "core/decay_space.h"

namespace decaylib::core {

struct MetricityResult {
  // The metricity zeta(D).  0 when no triplet constrains the space (e.g. the
  // uniform metric, where every positive exponent works).
  double zeta = 0.0;
  // The triplet attaining it (x = source, y = destination, z = waypoint);
  // all -1 when unconstrained.
  int arg_x = -1;
  int arg_y = -1;
  int arg_z = -1;
};

// Computes zeta(D) by per-triplet root finding.  For a triplet with
// a = f(x,y) > max(b, c), b = f(x,z), c = f(z,y), the function
// h(s) = (b/a)^s + (c/a)^s - 1 is strictly decreasing with h(0) = 1, so the
// triplet's constraint holds iff s = 1/zeta is at most its unique root;
// zeta(D) is the max of 1/root over constraining triplets.  O(n^3) triplets,
// serial and deterministic; only those that can beat the incumbent are
// solved by bisection to relative tolerance `tol`.
//
// Most triples are decided without a pow, in the root space g = f^s0 of an
// earlier exponent s0 >= s = slack/zeta_best: since b/a, c/a < 1,
// (b/a)^s >= (b/a)^s0, so g(x,z) + g(z,y) >= g(x,y) gives h(s) > 0 and the
// triple cannot win.  A pair (x,y) is skipped whole when the min-plus
// certificate min_z g(x,z) + g(z,y) (g is +inf on the diagonal) clears
// g(x,y): the same test at every waypoint at once, so it skips exactly the
// pairs in which the per-triple root test would skip every waypoint.  The test
// carries a 1 + 1e-12 guard, far above the few ulp of rounding in the
// three pows, the sum and the product, and is off whenever some entry of
// g leaves the normal double range.  g is rebuilt (n^2 pows and a
// transpose) only once s falls below 0.9 s0: rebuilds stay logarithmic in
// the incumbent's growth while g's exponent stays close enough to the live
// one to prune nearly as much.  Survivors still take the per-triple root
// test, the live two-pow test and TripletZeta.
MetricityResult ComputeMetricity(const DecaySpace& space, double tol = 1e-12);

// Reference implementation: bisects every constraining triplet in the
// original loop order.  Kept for equality tests and speedup benchmarks.
MetricityResult ComputeMetricityNaive(const DecaySpace& space,
                                      double tol = 1e-12);

// Convenience: just the number.
double Metricity(const DecaySpace& space, double tol = 1e-12);

// The smallest zeta satisfying (2) for one triplet (a, b, c) = (f(x,y),
// f(x,z), f(z,y)); 0 when a <= max(b, c) (unconstraining).
double TripletZeta(double a, double b, double c, double tol = 1e-12);

struct PhiResult {
  double phi_factor = 0.0;  // smallest phi_factor with f_xz <= phi_factor*(f_xy+f_yz)
  double phi = 0.0;         // lg(phi_factor); the paper's phi
  int arg_x = -1;
  int arg_y = -1;  // the waypoint
  int arg_z = -1;
};

// Computes the variant metricity phi (Sec. 4.2).  One serial O(n^3) scan
// that skips a pair (x,z) when fxz over a lower bound on its denominators
// cannot beat the incumbent -- first the O(1) bound
// min_y f(x,y) + min_y f(y,z), then the exact min-plus minimum
// min_y f(x,y) + f(y,z), the same reduction ComputeMetricity's pair
// certificate runs; both are exact by monotonicity of rounded + and /.
// Surviving pairs take a multiplication-only per-candidate prune, and
// columns are read from a transposed copy; deterministic result, identical
// to ComputePhiNaive's.
PhiResult ComputePhi(const DecaySpace& space);

// Reference exhaustive scan, for tests and benchmarks.
PhiResult ComputePhiNaive(const DecaySpace& space);

// The a-priori upper bound lg(max f / min f) from the remark after Def. 2.2.
double MetricityUpperBound(const DecaySpace& space);

}  // namespace decaylib::core
