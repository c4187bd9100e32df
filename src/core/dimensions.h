// Balls, packings, the Assouad dimension, and the independence dimension of
// decay spaces (Definitions 3.2, 3.3 and 4.1 of the paper).
//
// Packing terminology (Sec. 3.1): the t-ball B(y,t) = {x : f(x,y) < t}; a set
// Y is a t-packing iff f(x,y) > 2t for all distinct x, y in Y (so the t-balls
// around Y are disjoint); the t-packing number P(B, t) is the size of the
// largest t-packing contained in the body B.
//
// The Assouad dimension with parameter C (Def. 3.2) is
//     A(D) = max_q log_q(g(q) / C),  g(q) = max_x max_r P(B(x,r), r/q),
// i.e. the smallest degree k such that all t-packings have size O(t^k).
// A fading space (Def. 3.3) has A(D) < 1.
//
// The independence dimension (Def. 4.1, after [21]) is the largest set I that
// is independent with respect to some node x: every z in I has x at least as
// close (in decay) as any other member of I.  Welzl's guard sets J_x realise
// the dual view: at most D = independence-dimension points suffice so that
// every other node z has some guard y with f(z,y) <= f(z,x).
//
// Exact maximisation problems here (largest packing, largest independent set
// w.r.t. a point) are maximum independent sets of the induced conflict graph,
// solved by core::LargestCompatibleSet (core/branch_and_bound.h); greedy
// variants provide lower-bound estimates for large inputs.
#pragma once

#include <span>
#include <vector>

#include "core/decay_space.h"

namespace decaylib::core {

// Nodes of the open decay ball B(center, t) = {x : f(x, center) < t}.
// The center itself is included (f(c,c) = 0 < t for t > 0).
std::vector<int> Ball(const DecaySpace& space, int center, double t);

// True iff `nodes` is a t-packing: pairwise decay strictly above 2t in both
// directions (both orders are checked so the definition is meaningful in
// asymmetric spaces; for symmetric spaces this is the paper's condition).
bool IsPacking(const DecaySpace& space, std::span<const int> nodes, double t);

// Size of the largest t-packing within `body`, exact.
// Intended for |body| <= ~40.
int PackingNumberExact(const DecaySpace& space, std::span<const int> body,
                       double t);

// Greedy maximal t-packing within `body` (scans in the given order); a lower
// bound on the packing number, within the usual maximal-vs-maximum gap.
std::vector<int> GreedyPacking(const DecaySpace& space,
                               std::span<const int> body, double t);

struct AssouadEstimate {
  double dimension = 0.0;      // estimated A(D): slope of ln g(q) vs ln q
  double constant = 1.0;       // exp(intercept): the fitted C
  double worst_q = 0.0;        // the q with the largest realised packing
  int worst_packing_size = 0;  // g(worst_q)
  std::vector<double> qs;      // the sweep actually used
  std::vector<int> g;          // g(q) per sweep entry
};

// Estimates the Assouad dimension by sweeping the given ratios q > 1 over
// all centers x and all realised radii r (the distinct decays towards x),
// computing the densest packing g(q) = max_{x,r} P(B(x,r), r/q) with greedy
// packings (exact when |ball| <= exact_limit), then least-squares fitting
// ln g(q) = A ln q + ln C.  The regression absorbs the constant C that a
// single-point estimate log_q(g/C) cannot separate on finite instances; on
// the synthetic spaces in tests it recovers the known dimensions (1/alpha on
// a line, 2/alpha in the plane) to within finite-size error.
AssouadEstimate EstimateAssouadDimension(const DecaySpace& space,
                                         std::span<const double> qs,
                                         int exact_limit = 24);

// --- Independence dimension & guards -------------------------------------

// True iff I is independent with respect to x: for all distinct z, w in I,
// f(w, z) > f(z, x)  (every member of I has x strictly nearer than any other
// member).  Strictness matches the paper's examples: the uniform metric has
// independence dimension 1 and the Euclidean plane 5 (pairwise angles of
// more than 60 degrees).  Requires x not in I.
bool IsIndependentWrt(const DecaySpace& space, int x, std::span<const int> I);

// Largest independent set with respect to x (exact, over the pairwise-
// compatibility graph).  Intended for n <= ~48.
std::vector<int> MaxIndependentWrt(const DecaySpace& space, int x);

// The independence dimension: max over x of |MaxIndependentWrt(x)|.
int IndependenceDimension(const DecaySpace& space);

// Greedy guard set for x: scan nodes by increasing decay towards x; any node
// not yet guarded becomes a guard.  In symmetric spaces the result is
// independent w.r.t. x, hence has size at most the independence dimension.
std::vector<int> GreedyGuards(const DecaySpace& space, int x);

// True iff J guards x: every node z outside J u {x} has some y in J with
// f(z, y) <= f(z, x).
bool GuardsNode(const DecaySpace& space, int x, std::span<const int> J);

}  // namespace decaylib::core
