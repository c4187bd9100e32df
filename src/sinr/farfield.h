// Certified far-field affectance aggregation: the O(n + cells) kernel tier.
//
// The dense KernelCache materialises every pairwise affectance, which caps
// instances at a few thousand links (O(n^2) memory and pow calls).
// FarFieldKernel replaces the matrices with the geometry they were derived
// from: for geometric decay f(p, q) = |p - q|^alpha and uniform power, the
// affectance a_w(v) = c_v * f_vv / |s_w - r_v|^alpha is a monotone function
// of one distance, so the contribution of every sender in a distant region
// can be *pooled* -- bounded above and below through the region's tight
// bounding box -- instead of evaluated pairwise.
//
// The regions are the blocks of a hierarchy over each endpoint grid: level
// 0 is the grid's cells, and each level above merges 2x2 blocks of the one
// below until a single root remains.  Every pooled query is one top-down
// walk that pools a block whole once its interval is narrow enough and
// opens it otherwise, so a query costs O(near ring + blocks visited) --
// O(log) blocks in the far field -- not O(cells touched by the set).
//
// Error certification (never trusted, always carried):
//   * Per block, the box distance range [d_lo, d_hi] from the receiver
//     gives
//       count * K / d_hi^alpha <= sum of contributions <= count * K / d_lo^alpha,
//     with a multiplicative 1e-9 guard absorbing the fp rounding of the
//     bound arithmetic itself.  Bounds are on the *raw* affectance (the
//     feasibility form) or, for Algorithm 1's budget, on its per-entry
//     clamp at 1.
//   * The near field is pairwise: level-0 blocks whose cell box comes
//     closer than the ring radius R0 = diag / (2^{1/alpha} - 1) (diag =
//     cell * sqrt(2)) are summed entry by entry.  Beyond R0 a cell's
//     upper/lower contribution ratio is at most (1 + diag/d_lo)^alpha <= 2.
//   * Every pooled sum is one walk at a width tolerance (see kDecideTol):
//     a coarse walk first, leaf resolution only for a sum still within
//     reach of its threshold, and the exact dense-order fold -- with
//     geom::GeometricDecay, the expression DecaySpace::Geometric feeds the
//     dense path, so its terms are bit-identical to the dense matrix
//     entries -- only for a sum that straddles the threshold even then.
//
// FarFieldKernel + FarFieldAccumulator satisfy the KernelTier concept
// (kernel_tier.h), so the admission pipelines -- capacity::RunAlgorithm1,
// capacity::GreedyFeasible, scheduling::ScheduleLinks / ValidateSchedule --
// run on this tier through the same templates as on the dense one.
//
// Decision contract vs the dense path (what the engine's signature gate
// relies on):
//   * pooling off (epsilon = 0): every query and accumulator decision below
//     runs the exact expressions in the dense iteration order -- results
//     are bit-identical to KernelCache / AffectanceAccumulator, hence every
//     pipeline's output is bit-identical to its dense run.
//   * pooling on (any epsilon > 0; nothing reads its value): threshold
//     *decisions* (feasibility vs 1, Algorithm 1's budget vs 0.5 and final
//     filter vs 1, separation) are taken from the certified interval only
//     when it clears the threshold by an absolute 1e-9 band; inside the
//     band the decision falls back to the exact dense expression in the
//     dense summation order.  Decisions therefore still match the dense
//     path except for inputs engineered to sit within ~1e-9 of a threshold
//     (the caveat the separation verdict both tiers share, SeparationTest,
//     carries on every tier).
//
// Pooling requires uniform power (the per-pair factor P_w / P_v would
// otherwise vary inside a block); non-uniform assignments silently use the
// exact path everywhere, staying correct, just dense-speed.  The engine
// additionally rejects kFarField specs with shadowing (sigma_db != 0), whose
// decay is no longer a function of distance -- see ValidateScenarioSpec.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
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
  // Pooling switch: any value > 0 turns pooling on, and no decision or
  // aggregate reads the value itself; 0 disables pooling entirely and makes
  // every path exact (bit-identical to dense).
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
  // lower <= exact <= upper, from one walk of the sender hierarchy at leaf
  // resolution.  Exact (lower == upper) when pooling is off.
  Interval CertifiedInAffectance(std::span<const int> S, int v) const;

  // Raw in-affectance summed exactly in S order: bit-identical to the dense
  // IsFeasible column fold over S.
  double InAffectanceRawExact(std::span<const int> S, int v) const;

  // Feasibility of S (every member's raw in-sum <= 1): S is binned into the
  // sender hierarchy once per call, and each member is decided as
  // FarFieldAccumulator::CanAddFeasibly decides a candidate -- the
  // kDecideTol walk, leaf resolution if that straddles the 1e-9 band
  // around 1, the exact fold if that still does.  Without pooling the exact
  // fold runs unconditionally and is bit-identical to
  // KernelCache::IsFeasible.
  bool IsFeasible(std::span<const int> S) const;

  // Forward kept only until the next benchmark change can drop it
  // (enginebench/replay.cc still calls this name).
  bool IsFeasibleCertified(std::span<const int> S) const {
    return IsFeasible(S);
  }

  // One level of a block hierarchy: cols x rows blocks, numbered from
  // `offset` in row-major order.
  struct Level {
    int cols = 1;
    int rows = 1;
    int offset = 0;
  };
  // The block hierarchies over the sender and receiver grids: level 0 (the
  // grid's cells) first, the 1x1 root last.
  std::span<const Level> SenderLevels() const noexcept {
    return sender_.levels;
  }
  std::span<const Level> ReceiverLevels() const noexcept {
    return receiver_.levels;
  }

  // Heap bytes: endpoint copies, per-link factors, both grids and both
  // block hierarchies.  O(n + cells).
  long long MemoryBytes() const noexcept;

 private:
  friend class FarFieldAccumulator;

  // Axis-aligned box; the default is empty (every distance to it is +inf).
  struct Box {
    double min_x = std::numeric_limits<double>::infinity();
    double min_y = std::numeric_limits<double>::infinity();
    double max_x = -std::numeric_limits<double>::infinity();
    double max_y = -std::numeric_limits<double>::infinity();
    void Extend(geom::Vec2 p) {
      min_x = std::min(min_x, p.x);
      min_y = std::min(min_y, p.y);
      max_x = std::max(max_x, p.x);
      max_y = std::max(max_y, p.y);
    }
  };

  // The running sums of one block of a hierarchy over some link set (the
  // accumulator's members, or the S of one feasibility call): how many
  // links, the tight box of their endpoints on this side, and the sum and
  // max of their c_w * f_ww.
  struct Block {
    Box box;
    int count = 0;
    double cf_sum = 0.0;
    double cf_max = 0.0;
  };

  // One endpoint set (senders or receivers): its uniform grid, the grid's
  // occupied cells, and the block hierarchy over the grid.  Level 0 is the
  // grid's cells in row-major order; level L + 1 merges 2x2 blocks of level
  // L (odd sides round up) until one root block remains.  Blocks are
  // numbered level by level: levels[L].offset + y * levels[L].cols + x, and
  // level-0 cell (x, y) lies in level-L block (x >> L, y >> L).
  struct EndpointGrid {
    EndpointGrid(std::span<const geom::Vec2> pts, int target_per_cell);
    int NumBlocks() const noexcept {
      return levels.back().offset + levels.back().cols * levels.back().rows;
    }
    // Adds endpoint p (of a link in the occupied cell `cell`, with factor
    // cf) to the leaf-to-root chain of blocks holding it: O(levels).
    void AddToBlocks(int cell, geom::Vec2 p, double cf,
                     std::vector<Block>& blocks) const;
    long long MemoryBytes() const noexcept;

    geom::UniformGrid grid;
    std::vector<Box> cell_box;      // occupied cell -> tight box of all points
    std::vector<int> cell_of;       // link -> occupied cell
    std::vector<int> leaf_of_cell;  // occupied cell -> level-0 block
    std::vector<int> cell_of_leaf;  // level-0 block -> occupied cell, or -1
    std::vector<Level> levels;      // levels.back() is the 1x1 root
    // Exact near ring radius: a level-0 block whose cell box comes within
    // it is always evaluated pairwise.
    double near = 0.0;
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
  //
  // The pooled sums add their terms in traversal order, not in any fixed
  // cell order, and that is fine: a sum of m non-negative terms carries a
  // relative rounding error of at most (m - 1) * 2^-53 in *every* order,
  // and each term (a count or cf sum times a guarded BoundPow quotient) at
  // most a few ulps more.  m is at most the number of links plus the
  // number of blocks, so the error stays below kGuard for any instance up
  // to millions of links.
  static constexpr double kGuard = 1e-9;
  // Absolute width tolerances of the block traversal.  A block above level
  // 0 is pooled whole when its certified interval is at most this wide, and
  // opened into its children otherwise; level-0 blocks pool at any width
  // (the near ring bounds their width, see Init).  The tolerance only
  // trades how many blocks a walk visits against how wide its interval
  // comes out -- every pooled interval is a valid certificate, so no
  // decision depends on it:
  //   * kDecideTol: the first walk of every decision (Decide: admission,
  //     budget, feasibility).  A coarse interval that clears the 1e-9 band
  //     around the threshold decides.  One that does not is recomputed at
  //     tolerance 0 -- leaf resolution, where every far cell pools on its
  //     own through its members' tight box -- before the exact fold runs,
  //     so exact fallbacks cannot rise.  A coarse interval is a few
  //     tolerances wider than the leaf one, so only candidates that close
  //     to a threshold (1 or 1/2) pay the second walk.
  //   * kBracketTol: Add's in-raw brackets (the new member's own and its
  //     pressure on the others).  A pooled block widens the brackets of all
  //     its members by at most this much in total.  Brackets only gate the
  //     lazy headroom thresholds, whose in-band cases fold exactly, so a
  //     wider bracket costs refreshes, never a decision.
  // The values are the fastest pair of 2^-3 .. 2^-10 on the 4096-link
  // uniform_dense engine workload (Algorithm 1 + greedy + schedule); 2^-10
  // for both ran ~40% slower.
  static constexpr double kDecideTol = 0x1p-7;
  static constexpr double kBracketTol = 0x1p-5;
  // Grid occupancy target; coarser cells mean fewer cells to pool but a
  // larger exact near ring.
  static constexpr int kTargetPerCell = 8;

  // A position in a hierarchy's top-down walk: level and block coordinates.
  struct Frame {
    int level = 0;
    int x = 0;
    int y = 0;
  };
  // The one top-down traversal behind every pooled scan (in-bounds, out
  // bounds, Add's pressure brackets) and the separation collect.  Walks the
  // non-empty blocks from the root down: visit(frame, block_id) returns
  // true when it consumed the block whole (pooled or pruned) and false to
  // open it into its (up to four) children; an opened level-0 block goes
  // to leaf(occupied_cell).
  template <typename Visit, typename Leaf>
  static void Walk(const EndpointGrid& side, const std::vector<Block>& blocks,
                   Visit&& visit, Leaf&& leaf);
  // The pooled walk for a query point p.  A level-0 block in p's near ring
  // goes to pairwise(cell).  Any other block gets its certified range
  // from bounds(frame, block, lo, hi, &dn, &up), [lo, hi] being p's
  // distance range to the block's box; false means it cannot pool and is
  // opened (a level-0 block: pairwise).  A block that can pool is pooled --
  // pool(frame, dn, up) -- at level 0 or when up - dn <= tol, and opened
  // otherwise.
  template <typename Bounds, typename Pool, typename Pairwise>
  static void Scan(const EndpointGrid& side, const std::vector<Block>& blocks,
                   geom::Vec2 p, double tol, Bounds&& bounds, Pool&& pool,
                   Pairwise&& pairwise);
  // Scan summed into an interval widened by kGuard; pairwise(cell) returns
  // the leaf's pairwise sum.
  template <typename Bounds, typename Pairwise>
  static Interval PooledInterval(const EndpointGrid& side,
                                 const std::vector<Block>& blocks,
                                 geom::Vec2 p, double tol, Bounds&& bounds,
                                 Pairwise&& pairwise);

  // v's in-affectance interval -- raw, or clamped per entry at 1 when
  // `clamp` -- from the senders in `blocks`: one walk of the sender
  // hierarchy at `tol`, members_of(cell) listing the set's links in
  // occupied sender cell `cell` for the pairwise leaves.  A block that
  // holds v's own sender never pools, so a set that contains v needs no
  // count correction (v's own entry is 0).
  template <typename MembersOf>
  Interval InBounds(const std::vector<Block>& blocks, MembersOf&& members_of,
                    int v, double tol, bool clamp) const;
  // The one decision procedure of every pooled threshold test:
  // bounds_at(kDecideTol), then bounds_at(0) if that straddles the band
  // around t.  kBelow certifies sum <= t, kAbove sum > t; kUndecided leaves
  // the decision to the caller's exact dense-order fold.  Counts the
  // outcome (certified accept / reject / exact fallback).
  enum class Verdict { kBelow, kAbove, kUndecided };
  template <typename BoundsAt>
  static Verdict Decide(BoundsAt&& bounds_at, double t);
  // S binned by sender cell and into the sender hierarchy.
  struct SenderBins;
  SenderBins BinBySender(std::span<const int> S) const;

  void Init(double epsilon);
  // Euclidean distance range from p to box b (lo = 0 when p is inside).
  static void BoxDistance(const Box& b, geom::Vec2 p, double* lo, double* hi);
  // Squared distance lower bound to the box, pow-free (block pruning).
  static double BoxDistanceSqLower(const Box& b, geom::Vec2 p);
  // Whether occupied cell `cell` must go pairwise for a query at p: its
  // cell box (all points, not only the current members) comes within the
  // side's near ring.
  static bool InNearRing(const EndpointGrid& side, int cell, geom::Vec2 p) {
    return std::sqrt(BoxDistanceSqLower(
               side.cell_box[static_cast<std::size_t>(cell)], p)) <=
           side.near;
  }

  // pow(d, alpha) for the *bound* arithmetic only: integral alpha (the
  // common 2..8 path-loss exponents) runs as repeated multiplication --
  // roughly an order of magnitude cheaper than std::pow on the admission
  // hot loop, where it executes twice per pooled block per check.  The
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
  SinrConfig config_;
  PowerAssignment power_;
  bool uniform_power_ = true;
  // Pooled bounds are on: epsilon > 0 and uniform power.  Otherwise every
  // decision runs the exact dense expressions.
  bool pooled_ = false;
  std::vector<geom::Vec2> senders_;
  std::vector<geom::Vec2> receivers_;
  std::vector<double> link_decay_;    // f_vv
  std::vector<char> can_overcome_;    // P_v / f_vv > beta N
  std::vector<double> noise_factor_;  // c_v (0 when !can_overcome_)
  std::vector<double> cf_;            // c_v * f_vv (0 when !can_overcome_)

  EndpointGrid sender_;
  EndpointGrid receiver_;
};

// Running exact in-affectance sums over a growing admitted set, plus
// certified candidate checks against the member set pooled by block.
// The member sums accumulate in insertion order with the dense entry
// expressions, so for members they are bit-identical to
// AffectanceAccumulator's (a non-member contributes +0.0 at its own Add in
// the dense version, which cannot change an IEEE sum of non-negative
// terms).  There is deliberately no Remove or Clear: the admission loops
// only ever grow a fresh accumulator, and like the dense accumulator every
// sum stays an insertion-order fold, never a subtraction.
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

  // Algorithm 1's final filter for member v: its clamped in-sum from the
  // members is <= 1, the dense accumulator's In(v) <= 1.0 decision.  The
  // in-raw bracket Add maintains accepts outright when its upper end clears
  // the 1e-9 band (clamped sum <= raw sum); only the remaining members pay
  // the exact dense-order fold.
  bool InWithinOne(int v) const;

  // Dense AffectanceAccumulator::CanAddFeasibly decisions: candidate raw
  // in-sum vs 1, then every member's headroom vs the candidate's pressure.
  // Certified pooled bounds decide both tests outside the 1e-9 band; the
  // exact dense expressions decide inside it (and everywhere when pooling
  // is off).
  bool CanAddFeasibly(int v) const;

  // Algorithm 1's admission budget Out(v) + In(v) <= 0.5, certified the
  // same way (clamped sums pooled per block with clamp-safe bounds).
  bool BudgetWithinHalf(int v) const;

  // SeparationOracle::IsSeparatedFrom(v, members()), with the same
  // per-pair SeparationTest (kernel_tier.h): member blocks (by sender and
  // by receiver) whose box clears the test's certification radius from
  // both candidate endpoints are skipped whole; each member of the leaves
  // either walk reaches gets the test's coordinate verdict.  Always the
  // dense oracle's decision.
  bool IsSeparatedFromMembers(int v, double eta, double zeta) const;

 private:
  using Interval = FarFieldKernel::Interval;
  // Certified candidate bounds against the members, each one walk of a
  // hierarchy that pools blocks at most `tol` wide (0: leaf resolution):
  // the in-sum (kernel InBounds, raw or clamped) and the clamped out-sum.
  Interval CandidateInBounds(int v, double tol, bool clamp) const;
  Interval CandidateOutClampedBounds(int v, double tol) const;
  double ExactBudget(int v) const;
  // Recomputes member i's certified d^2 headroom thresholds.  Called for
  // the new member on Add and lazily from CanAddFeasibly when a member's
  // in-raw sum has outgrown its pass threshold's validity (pass_limit_).
  void RefreshHeadroom(std::size_t i) const;
  // Extends member w's exact sums over the members appended since the
  // last catch-up, replaying the same additions in the same order the
  // dense accumulator performs eagerly -- the folded values are
  // bit-identical.
  void CatchUp(int w) const;
  // Advances every member's in-raw bracket by the new member v's pressure,
  // in one walk of the receiver hierarchy at kBracketTol: the members of a
  // pooled block get its certified per-member range, those of a near-ring
  // leaf the pairwise value.
  void AddPressureBrackets(int v);

  const FarFieldKernel* kernel_;
  std::vector<int> members_;
  std::vector<char> in_set_;
  // Member sums, indexed by link id (valid only for members).  They are
  // lazily exact: each fold is current only through the first upto_[w]
  // entries of members_, and CatchUp(w) extends it on demand (mutable for
  // that reason).  Pooled, the certified brackets in_lo_/in_hi_ of the raw
  // in-sum ARE maintained eagerly -- cheaply, pooled per receiver block
  // with no libm -- so headroom thresholds and their staleness triggers
  // never force an exact fold.
  mutable std::vector<double> in_m_, in_raw_m_;
  mutable std::vector<int> upto_;
  mutable std::vector<double> in_lo_, in_hi_;
  // Members by occupied kernel cell, and the member sums of every block of
  // both hierarchies (maintained by Add along the leaf-to-root chains).
  std::vector<std::vector<int>> scell_members_;
  std::vector<std::vector<int>> rcell_members_;
  std::vector<FarFieldKernel::Block> sblocks_;
  std::vector<FarFieldKernel::Block> rblocks_;
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
