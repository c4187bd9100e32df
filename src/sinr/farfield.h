// Certified far-field affectance aggregation: the O(n + cells) kernel tier.
//
// The dense KernelCache materialises every pairwise affectance, which caps
// instances at a few thousand links (O(n^2) memory and pow calls).
// FarFieldKernel replaces the matrices with the geometry they were derived
// from: for geometric decay f(p, q) = |p - q|^alpha and uniform power, the
// affectance a_w(v) = c_v * f_vv / |s_w - r_v|^alpha is a monotone function
// of one distance, so the contribution of every sender in a distant grid
// cell can be *pooled* -- bounded above and below through the cell's tight
// bounding box -- instead of evaluated pairwise.
//
// Error certification (never trusted, always carried):
//   * Per cell, the box distance range [d_lo, d_hi] from the receiver gives
//     count * K / d_hi^alpha  <=  sum of contributions  <=  count * K / d_lo^alpha,
//     with a multiplicative 1e-9 guard absorbing the fp rounding of the
//     bound arithmetic itself.  Bounds are on the *raw* (unclamped)
//     affectance, the feasibility form.
//   * The near field is exact: cells whose box comes closer than the ring
//     radius R0 = diag / (2^{1/alpha} - 1) (diag = cell * sqrt(2)) are
//     evaluated pairwise with geom::GeometricDecay -- the same expression
//     DecaySpace::Geometric feeds the dense path, so the exact terms are
//     bit-identical to the dense matrix entries.  Beyond R0 a cell's
//     upper/lower contribution ratio is at most (1 + diag/d_lo)^alpha <= 2,
//     so adaptive refinement (converting the widest pooled cell to exact)
//     converges geometrically to any requested width.
//   * CertifiedInAffectance refines until upper - lower <= epsilon * lower;
//     the guard adds at most ~3e-9 * upper of slack on top.
//
// FarFieldKernel + FarFieldAccumulator satisfy the KernelTier concept
// (kernel_tier.h), so the admission pipelines -- capacity::RunAlgorithm1,
// capacity::GreedyFeasible, scheduling::ScheduleLinks / ValidateSchedule --
// run on this tier through the same templates as on the dense one.
//
// Decision contract vs the dense path (what the engine's signature gate
// relies on):
//   * epsilon = 0: every query and accumulator decision below runs the exact
//     expressions in the dense iteration order -- results are bit-identical
//     to KernelCache / AffectanceAccumulator, hence every pipeline's output
//     is bit-identical to its dense run.
//   * epsilon > 0: threshold *decisions* (feasibility vs 1, Algorithm 1's
//     budget vs 0.5, separation) are taken from the certified interval only
//     when it clears the threshold by an absolute 1e-9 band; inside the band
//     the decision falls back to the exact dense expression in the dense
//     summation order.  Decisions therefore still match the dense path
//     except for inputs engineered to sit within ~1e-9 of a threshold (the
//     same caveat SeparationOracle already carries), while the *reported
//     aggregate sums* may differ by the certified epsilon.
//
// Pooling requires uniform power (the per-pair factor P_w / P_v would
// otherwise vary inside a cell); non-uniform assignments silently use the
// exact path everywhere, staying correct, just dense-speed.  The engine
// additionally rejects kFarField specs with shadowing (sigma_db != 0), whose
// decay is no longer a function of distance -- see ValidateScenarioSpec.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "geom/grid.h"
#include "geom/point.h"
#include "scheduling/scheduler.h"
#include "sinr/kernel_tier.h"
#include "sinr/link_system.h"

namespace decaylib::sinr {

struct FarFieldConfig {
  // Certified relative width target for bound queries; 0 disables pooling
  // entirely and makes every path exact (bit-identical to dense).
  double epsilon = 1e-3;
};

class FarFieldAccumulator;

// Matrix-free SINR kernel over link endpoint geometry.  Holds copies of the
// endpoint positions; O(n + cells) memory.
class FarFieldKernel {
 public:
  // The far-field tier's running sums (the KernelTier concept).
  using Accumulator = FarFieldAccumulator;

  // Endpoints drawn from a node point set (the engine's shape): link v runs
  // senders[links[v].sender] -> points[links[v].receiver].
  FarFieldKernel(std::span<const geom::Vec2> points, std::span<const Link> links,
                 double alpha, SinrConfig config, PowerAssignment power,
                 FarFieldConfig farfield = {});

  // Endpoints given directly (bench/synthetic instances with no node array).
  FarFieldKernel(std::vector<geom::Vec2> senders,
                 std::vector<geom::Vec2> receivers, double alpha,
                 SinrConfig config, PowerAssignment power,
                 FarFieldConfig farfield = {});

  int NumLinks() const noexcept { return n_; }
  double alpha() const noexcept { return alpha_; }
  const SinrConfig& config() const noexcept { return config_; }
  const PowerAssignment& power() const noexcept { return power_; }
  bool HasUniformPower() const noexcept { return uniform_power_; }

  // f_vv, c_v and the noise test -- same expressions as KernelCache, so the
  // values are bit-identical to the dense ones over the same geometry.
  double LinkDecay(int v) const {
    return link_decay_[static_cast<std::size_t>(v)];
  }
  bool CanOvercomeNoise(int v) const {
    return can_overcome_[static_cast<std::size_t>(v)] != 0;
  }
  double NoiseFactor(int v) const {
    return noise_factor_[static_cast<std::size_t>(v)];
  }

  // a_w(v) unclamped, evaluated from geometry with the dense entry's exact
  // expression (bit-identical to KernelCache::AffectanceRaw).
  double AffectanceExact(int w, int v) const;

  struct Interval {
    double lower = 0.0;
    double upper = 0.0;
  };

  // Certified interval for the raw in-affectance sum_{w in S} a_w(v)
  // (entries equal to v contribute 0, as in the dense row):
  // lower <= exact <= upper with upper - lower <= epsilon * lower (+ ~3e-9 *
  // upper of fp guard).  Pools whole sender cells beyond the near ring and
  // adaptively refines the widest pooled cell until the interval meets the
  // epsilon width target.
  Interval CertifiedInAffectance(std::span<const int> S, int v) const;

  // Raw in-affectance summed exactly in S order: bit-identical to the dense
  // IsKFeasible row fold over S.
  double InAffectanceRawExact(std::span<const int> S, int v) const;

  // Feasibility of S (every member's raw in-sum <= 1) decided through the
  // certified interval, falling back to the exact fold only when the
  // interval straddles the 1e-9 threshold band.  epsilon = 0 runs the exact
  // fold unconditionally and is bit-identical to KernelCache::IsFeasible.
  bool IsFeasible(std::span<const int> S) const;

  // Forward kept only until the next benchmark change can drop it
  // (enginebench/replay.cc still calls this name).
  bool IsFeasibleCertified(std::span<const int> S) const {
    return IsFeasible(S);
  }

  long long MemoryBytes() const noexcept;

 private:
  friend class FarFieldAccumulator;

  // Tight bounding box + id range of one occupied grid cell.
  struct CellAgg {
    double min_x = 0.0;
    double min_y = 0.0;
    double max_x = 0.0;
    double max_y = 0.0;
    int first = 0;  // offset into the grouped id array
    int count = 0;
  };

  // Absolute decision band around thresholds (1.0 feasibility, 0.5 budget):
  // outside it the certified bound decides; inside it the exact dense
  // expression does.  The dense fp fold's own error at these magnitudes is
  // ~1e-12, far inside the band, so banded decisions match the dense bit
  // pattern except for adversarial inputs within ~1e-9 of a threshold.
  static constexpr double kBand = 1e-9;
  // Multiplicative guard absorbing the fp rounding of bound arithmetic
  // (box distances, pow, pooled products); the real-valued bound is
  // widened by this factor before use so certificates stay honest.
  static constexpr double kGuard = 1e-9;
  // Grid occupancy target; coarser cells mean fewer cells to pool but a
  // larger exact near ring.
  static constexpr int kTargetPerCell = 8;

  void Init(double epsilon);
  static void Compact(const geom::UniformGrid& grid,
                      std::span<const geom::Vec2> pts,
                      std::vector<CellAgg>* cells, std::vector<int>* grouped,
                      std::vector<int>* cell_of);
  // Euclidean distance range from p to cell c's tight box (lo = 0 when p is
  // inside the box).
  static void BoxDistance(const CellAgg& c, geom::Vec2 p, double* lo,
                          double* hi);
  // Squared distance lower bound to the box, pow-free (cell pruning).
  static double BoxDistanceSqLower(const CellAgg& c, geom::Vec2 p);

  // pow(d, alpha) for the *bound* arithmetic only: integral alpha (the
  // common 2..8 path-loss exponents) runs as repeated multiplication --
  // roughly an order of magnitude cheaper than std::pow on the admission
  // hot loop, where it executes twice per pooled cell per check.  The
  // <= few-ulp deviation from pow's correctly-rounded result is absorbed
  // by kGuard (any valid interval certifies the same decision), so this
  // must never feed an exact path -- those stay on geom::GeometricDecay's
  // std::pow for bit-identity with the dense kernel.
  double BoundPow(double d) const {
    if (alpha_int_ == 0) return std::pow(d, alpha_);
    double r = d;
    for (int e = alpha_int_ - 1; e > 0; --e) r *= d;
    return r;
  }

  // AffectanceExact(w, v) respelled for BOUND arithmetic: sqrt + BoundPow
  // instead of hypot + pow, within a few ulps of the exact value (absorbed
  // by kGuard at the consumers).  Assumes the pooled preconditions already
  // hold (uniform power); never a substitute for an exact fallback.
  double AffectanceNear(int w, int v) const {
    const std::size_t sv = static_cast<std::size_t>(v);
    if (w == v || !can_overcome_[sv]) return 0.0;
    const geom::Vec2 d =
        senders_[static_cast<std::size_t>(w)] - receivers_[sv];
    return cf_[sv] / BoundPow(std::sqrt(d.NormSq()));
  }

  int n_ = 0;
  double alpha_ = 0.0;
  int alpha_int_ = 0;  // alpha when integral in [1, 16], else 0 (use pow)
  double epsilon_ = 0.0;
  SinrConfig config_;
  PowerAssignment power_;
  bool uniform_power_ = true;
  std::vector<geom::Vec2> senders_;
  std::vector<geom::Vec2> receivers_;
  std::vector<double> link_decay_;    // f_vv
  std::vector<char> can_overcome_;    // P_v / f_vv > beta N
  std::vector<double> noise_factor_;  // c_v (0 when !can_overcome_)
  std::vector<double> cf_;            // c_v * f_vv (0 when !can_overcome_)

  // Occupied-cell aggregates over both endpoint sets.  The grids themselves
  // are kept only for CellIndex addressing.
  geom::UniformGrid sender_grid_;
  geom::UniformGrid receiver_grid_;
  std::vector<CellAgg> sender_cells_;
  std::vector<CellAgg> receiver_cells_;
  std::vector<int> sender_cell_ids_;    // link ids grouped by occupied cell
  std::vector<int> receiver_cell_ids_;
  std::vector<int> sender_cell_of_;     // link -> occupied sender cell index
  std::vector<int> receiver_cell_of_;
  // Exact near ring radii: within them a cell is always evaluated pairwise.
  double sender_near_ = 0.0;
  double receiver_near_ = 0.0;
};

// Running exact in-affectance sums over a growing admitted set, plus
// certified candidate checks against the member set pooled by grid cell.
// The member sums accumulate in insertion order with the dense entry
// expressions, so for members they are bit-identical to
// AffectanceAccumulator's (a non-member contributes +0.0 at its own Add in
// the dense version, which cannot change an IEEE sum of non-negative
// terms).  There is deliberately no Remove or Clear: the admission loops
// only ever grow a fresh accumulator, and removal would reopen the ulp-drift
// caveat the dense accumulator documents.
class FarFieldAccumulator {
 public:
  explicit FarFieldAccumulator(const FarFieldKernel& kernel);

  // O(|members|) exact updates (one distance + pow per member and
  // direction).  The caller must have checked kernel.CanOvercomeNoise(v).
  void Add(int v);

  const std::vector<int>& members() const noexcept { return members_; }
  bool Contains(int v) const {
    return in_set_[static_cast<std::size_t>(v)] != 0;
  }

  // Member-only clamped in-sum (DL_CHECKed), bit-identical to the dense
  // accumulator's for the same insertion sequence.
  double In(int v) const;

  // Dense AffectanceAccumulator::CanAddFeasibly decisions: candidate raw
  // in-sum vs 1, then every member's headroom vs the candidate's pressure.
  // Certified pooled bounds decide both tests outside the 1e-9 band; the
  // exact dense expressions decide inside it (and everywhere at epsilon = 0
  // or non-uniform power).
  bool CanAddFeasibly(int v) const;

  // Algorithm 1's admission budget Out(v) + In(v) <= 0.5, certified the
  // same way (clamped sums pooled per cell with clamp-safe bounds).
  bool BudgetWithinHalf(int v) const;

  // Dense SeparationOracle::IsSeparatedFrom(v, members()) decisions: cells
  // whose box clears the candidate's separation radius are skipped whole;
  // members in nearer cells run the dense knife-edge expressions.  Always
  // bit-identical to the dense oracle's decision.
  bool IsSeparatedFromMembers(int v, double eta, double zeta) const;

 private:
  FarFieldKernel::Interval CandidateInRawBounds(int v) const;
  FarFieldKernel::Interval CandidateInClampedBounds(int v) const;
  FarFieldKernel::Interval CandidateOutClampedBounds(int v) const;
  double ExactBudget(int v) const;
  // Recomputes member i's certified d^2 headroom thresholds.  Called for
  // the new member on Add and lazily from CanAddFeasibly when a member's
  // in-raw sum has outgrown its pass threshold's validity (pass_limit_).
  void RefreshHeadroom(std::size_t i) const;
  // Extends member w's exact sums over the members appended since the
  // last catch-up, replaying the same additions in the same order the
  // dense accumulator performs eagerly -- the folded values are
  // bit-identical.  No-op in the exact (non-pooled) modes, where Add
  // maintains the sums eagerly.
  void CatchUp(int w) const;

  const FarFieldKernel* kernel_;
  std::vector<int> members_;
  std::vector<char> in_set_;
  // Member sums, indexed by link id (valid only for members).  In the
  // pooled mode they are lazily exact: each fold is current only through
  // the first upto_[w] entries of members_, and CatchUp(w) extends it on
  // demand (mutable for that reason).  The certified brackets
  // in_lo_/in_hi_ of the raw in-sum ARE maintained eagerly -- cheaply,
  // pooled per receiver cell with no libm -- so headroom thresholds and
  // their staleness triggers never force an exact fold.
  mutable std::vector<double> in_m_, in_raw_m_;
  mutable std::vector<int> upto_;
  mutable std::vector<double> in_lo_, in_hi_;
  // Members grouped by kernel cell, for pooled candidate bounds.
  std::vector<std::vector<int>> scell_members_;
  std::vector<std::vector<int>> rcell_members_;
  std::vector<int> scell_touched_;
  std::vector<int> rcell_touched_;
  // Per receiver cell: running sum / max of members' c_w * f_ww.
  std::vector<double> rcell_cf_sum_;
  std::vector<double> rcell_cf_max_;
  // Per member (parallel to members_): d^2 thresholds certifying the
  // headroom test each way outside the decision band.  Maintained lazily
  // (mutable): a member's in-raw sum only grows, so a stale fail
  // threshold stays valid, and the pass threshold is computed for the
  // halved headroom so it stays valid until the headroom actually halves
  // -- pass_limit_ records the in-raw level where a refresh is due.
  mutable std::vector<double> t2_pass_;
  mutable std::vector<double> t2_fail_;
  mutable std::vector<double> pass_limit_;
  // Scratch for separation member collection.
  mutable std::vector<int> sep_scratch_;
  mutable std::vector<char> sep_mark_;
};

// Far-field names of the tier-generic admission pipelines.  They hold no
// logic and stay only until the next benchmark change can drop them
// (enginebench/replay.cc still calls them); new code calls the templates.
using FarFieldAlg1Result = capacity::Algorithm1Result;
using FarFieldSchedule = scheduling::Schedule;

inline FarFieldAlg1Result FarFieldRunAlgorithm1(const FarFieldKernel& kernel,
                                                double zeta) {
  return capacity::RunAlgorithm1(kernel, zeta);
}

inline std::vector<int> FarFieldGreedyFeasible(const FarFieldKernel& kernel) {
  return capacity::GreedyFeasible(kernel, AllLinks(kernel));
}

inline FarFieldSchedule FarFieldScheduleLinks(const FarFieldKernel& kernel,
                                              double zeta) {
  return scheduling::ScheduleLinks(kernel, zeta,
                                   scheduling::Extractor::kAlgorithm1,
                                   AllLinks(kernel));
}

inline bool FarFieldValidateSchedule(const FarFieldKernel& kernel,
                                     const FarFieldSchedule& schedule,
                                     std::span<const int> candidates) {
  return scheduling::ValidateSchedule(kernel, schedule, candidates);
}

}  // namespace decaylib::sinr
