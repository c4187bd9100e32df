// Power-controlled feasibility: can *some* power assignment make a set
// feasible?
//
// Theorems 3 and 6 state hardness "even if the algorithm is allowed
// arbitrary power control against an adversary that uses uniform power";
// verifying their constructions needs an oracle for power-controlled
// feasibility.  Two classic tools:
//
//  * The Foschini-Miljanic fixed point: iterate
//        P_v <- beta * (N + sum_{u != v} P_u G_uv) / G_vv.
//    The iteration converges to the (component-wise minimal) feasible power
//    vector iff the spectral radius of the normalised gain matrix
//    B_vu = beta * G_uv / G_vv is below 1; otherwise powers diverge.
//  * The pairwise obstruction used in the Theorem 6 proof: if
//    a^P_v(w) * a^P_w(v) >= beta^2 * (f_vv f_ww)/(f_vw f_wv) > beta^2 for a
//    pair, no power assignment serves both links (the product is
//    power-invariant).
//
// Every query is written once, over a DecaySource: a LinkSystem evaluates
// the decay space on each call, a KernelCache built with
// KernelSlabs::kCrossDecay loads its cached cross decays.  Both run the
// same expressions in the same order, so they return bit-identical
// results.  GreedyPowerControlFeasible, the engine's power-control task, is
// the decay-order greedy over these queries at a fixed iteration budget.
//
// The fixed-point loop, RunFixedPoint, is throughput-bound, not
// latency-bound: it reads B from a column-major GainPanel and sums 8L rows
// per pass over p in eight L-lane vectors, so one broadcast of p[j] feeds
// eight independent add chains.  L is 4 (AVX2) when the CPU has AVX2 and 2
// (SSE2 on x86-64) otherwise, chosen once per process.  Every row (one
// lane) still starts from c[i] and adds B[i][j] p[j] in j order with no
// fused multiply-add, and the max folds over the sweep are order-free, so
// the output is bit-identical to a one-row-at-a-time loop on either kernel
// (see docs/performance.md, "Power-control oracle").
#pragma once

#include <concepts>
#include <cstddef>
#include <span>
#include <vector>

#include "sinr/kernel.h"
#include "sinr/link_system.h"

namespace decaylib::sinr {

struct PowerControlResult {
  bool feasible = false;
  PowerAssignment power;     // valid iff feasible (normalised: max = 1)
  int iterations = 0;        // fixed-point iterations performed
  double spectral_radius_estimate = 0.0;  // growth rate estimate at exit
};

// What the power-control queries read: link and cross decays, the decay
// order and the SINR config.  The queries below are defined for LinkSystem
// and KernelCache.
template <class D>
concept DecaySource = requires(const D& source, int v, int w) {
  { source.LinkDecay(v) } -> std::convertible_to<double>;
  { source.CrossDecay(w, v) } -> std::convertible_to<double>;
  { source.OrderByDecay() } -> std::convertible_to<std::vector<int>>;
  { source.config() } -> std::convertible_to<const SinrConfig&>;
};

// Runs the Foschini-Miljanic iteration on the links in S.  With noise = 0
// the recursion is linear and the growth rate of ||P|| estimates the
// spectral radius; feasibility is declared when the iteration contracts
// (radius < 1 - tol) and denied when it expands.  Requires
// max_iterations >= 1 and a finite tol > 0 (DL_CHECK).
template <DecaySource D>
PowerControlResult FeasibleWithPowerControl(const D& source,
                                            std::span<const int> S,
                                            int max_iterations = 10000,
                                            double tol = 1e-9);

// The fixed-point problem p <- B p + c of k links, laid out for
// RunFixedPoint: B column-major with a column stride >= k that is a
// multiple of 4 (B[i][j] at data()[j * stride() + i]) and c padded to the
// stride, so a four-lane sweep reads whole vectors.  Every B entry outside
// the k x k block, and every c entry past the first k, is zero; the loop
// masks the padding rows out of its folds and never reads their sums.
// Border and DropBorder grow and shrink the set by its last link; the
// stride at least doubles when it runs out, so growing one link at a time
// copies O(k^2) entries in total.
class GainPanel {
 public:
  // k links, every entry zero.
  explicit GainPanel(std::size_t k = 0);

  std::size_t size() const noexcept { return k_; }
  std::size_t stride() const noexcept { return stride_; }
  double& B(std::size_t i, std::size_t j) { return b_[j * stride_ + i]; }
  double B(std::size_t i, std::size_t j) const { return b_[j * stride_ + i]; }
  double& c(std::size_t i) { return c_[i]; }
  double c(std::size_t i) const { return c_[i]; }
  const double* data() const noexcept { return b_.data(); }
  const double* constant() const noexcept { return c_.data(); }

  // Appends link k: a zero row and column k and c[k] = 0.
  void Border();
  // Drops link k - 1, zeroing its row, column and c entry.
  void DropBorder();

 private:
  std::size_t k_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> b_;  // stride_ x stride_, column-major
  std::vector<double> c_;  // stride_
};

// The fixed point FeasibleWithPowerControl runs, on the normalised-gain
// matrix B (zero diagonal) and the constant term c[i] = beta * N * f_ii of
// `panel`.  With noise > 0 it iterates p <- B p + c until the relative
// change drops below tol (feasible) or max(p) passes 1e30 (infeasible);
// with noise = 0 it runs the shifted power iteration on B + I.  At
// max_iterations the verdict is the last growth rate <= 1 + 10 tol.
PowerControlResult RunFixedPoint(const GainPanel& panel, double noise,
                                 int max_iterations, double tol);

// The power-invariant pairwise product beta^2 f_vv f_ww / (f_vw f_wv).
// > beta^2 (strictly, in the no-noise model) implies l_v and l_w cannot
// coexist under any power assignment.
template <DecaySource D>
double PairwiseAffectanceProduct(const D& source, int v, int w);

// True iff some pair in S has PairwiseAffectanceProduct > beta^2: a
// certificate that S is infeasible under any power.
template <DecaySource D>
bool HasPairwiseObstruction(const D& source, std::span<const int> S);

// The budget of every oracle call GreedyPowerControlFeasible makes (the
// engine also judges the whole link set at it): enough to settle
// well-separated sets in tens of iterations while bounding the
// near-threshold worst case.  The verdict at the cap -- judge by the last
// growth rate -- is deterministic either way.
inline constexpr int kGreedyPowerControlIterations = 300;
inline constexpr double kGreedyPowerControlTol = 1e-7;

// Greedy admission in decay order: a link joins when it has no pairwise
// obstruction with a member (the O(|S|) certificate runs first) and the
// Foschini-Miljanic iteration on the grown set contracts within the budget
// above.  One GainPanel serves every candidate: it is bordered with the
// candidate's row and column (2|S| divisions, not |S|^2) and the border is
// dropped on rejection, so each verdict equals FeasibleWithPowerControl's
// on the grown set.  The power-control analogue of GreedyFeasible;
// comparing the two sizes is the uniform-vs-power-control feasibility gap.
template <DecaySource D>
std::vector<int> GreedyPowerControlFeasible(const D& source);

}  // namespace decaylib::sinr
