// Cached SINR kernel layer: precompute-once, reuse-everywhere.
//
// Every algorithm in the library (Algorithm 1 capacity, weighted capacity,
// partitions, scheduling, exact solvers) reduces to dense pairwise kernels
// over the decay space: affectances a_w(v), link quasi-distances
// d(l_v, l_w) = min-endpoint-decay^{1/zeta}, and running in/out-affectance
// sums.  The naive LinkSystem methods recompute every kernel entry on every
// query -- AffectanceRaw re-derives the noise factor c_v per pair, and
// LinkDistance performs four std::pow calls per pair per call.  KernelCache
// materialises the n x n matrices once so that queries become O(1) lookups;
// AffectanceAccumulator turns the O(|S|) re-summations of greedy admission
// loops into O(1) reads with O(n) per-admission updates; SeparationOracle
// evaluates eta/zeta separation predicates in the decay domain without any
// pow on the hot path.  The cache also materialises the cross-decay kernel
// and derives the normalised-gain kernel from it, which back the cached
// power-control oracle (power_control.h overloads); KernelArena rebuilds a
// cache slot in place so batched/swept runs stop paying the allocator per
// instance.
//
// Bit-exactness contract: for the same (system, power), every query method
// here returns *bit-for-bit* the same double as the corresponding naive
// LinkSystem method.  The cached entries are computed with the identical
// floating-point expression (same association order), and aggregate sums run
// in the same iteration order.  Two non-obvious identities make this work:
//   * min over the four endpoint quasi-distances commutes with pow:
//     pow is weakly monotone, so min_i pow(f_i, s) == pow(min_i f_i, s) --
//     the distance matrix therefore needs one pow per pair, not four;
//   * x / x == 1.0 exactly in IEEE arithmetic, so under uniform power the
//     ratio P_w / P_v can be elided from the affectance expression without
//     changing the rounded result.
// The only deliberate deviation is SeparationOracle's fast path, which
// compares in the decay domain (m >= eta^zeta * f_vv instead of
// m^{1/zeta} >= eta * f_vv^{1/zeta}); the two forms are equivalent in exact
// arithmetic and the oracle falls back to the naive pow expression inside a
// 1e-9 relative guard band, so decisions match the naive path except for
// inputs engineered to sit within ~1e-9 of a separation threshold.
#pragma once

#include <span>
#include <vector>

#include "sinr/kernel_tier.h"
#include "sinr/link_system.h"

namespace decaylib::sinr {

// How KernelCache::Build sweeps the matrices.  Entry expressions are
// identical either way -- the paths are bit-identical and differ only in
// how many times each cache line is re-fetched:
//   * kTiled (default): fused sweeps -- the w-major pass derives the
//     aff_raw row from the cross row while it is still in cache, and the
//     v-major pass fills aff_raw_t and min_pair_decay from one cross_t
//     row read; the transpose itself is blocked 32x32.
//   * kScalar: one matrix per sweep, the original reference structure,
//     kept as the oracle the tiled path is tested against.
enum class KernelBuildPath { kTiled, kScalar };

class AffectanceAccumulator;

// Precomputed affectance/distance kernels for one (LinkSystem, power) pair.
// Holds a reference to the system; the system (and its decay space) must
// outlive the cache.  Construction costs O(n^2) time and memory; over a
// coordinate-backed space it evaluates ~2 n^2 decays (see Build), and the
// resulting matrices are bit-identical to those over the dense space.
class KernelCache {
 public:
  // The dense tier's running sums (the KernelTier concept, kernel_tier.h).
  using Accumulator = AffectanceAccumulator;

  KernelCache(const LinkSystem& system, PowerAssignment power,
              KernelBuildPath path = KernelBuildPath::kTiled);

  int NumLinks() const noexcept { return n_; }
  const LinkSystem& system() const noexcept { return *system_; }
  const PowerAssignment& power() const noexcept { return power_; }

  // f_vv, hoisted out of the space.
  double LinkDecay(int v) const {
    return link_decay_[static_cast<std::size_t>(v)];
  }

  bool CanOvercomeNoise(int v) const {
    return can_overcome_[static_cast<std::size_t>(v)] != 0;
  }

  // c_v = beta / (1 - beta N f_vv / P_v); only meaningful when
  // CanOvercomeNoise(v).
  double NoiseFactor(int v) const {
    return noise_factor_[static_cast<std::size_t>(v)];
  }

  // a_w(v) without the min(1, .) clamp; 0 when w == v or when l_v cannot
  // overcome noise (the naive path aborts on the latter; callers check
  // CanOvercomeNoise first, as every algorithm in the library does).
  double AffectanceRaw(int w, int v) const {
    return aff_raw_[static_cast<std::size_t>(w) * static_cast<std::size_t>(n_) +
                    static_cast<std::size_t>(v)];
  }

  double Affectance(int w, int v) const {
    const double raw = AffectanceRaw(w, v);
    return raw < 1.0 ? raw : 1.0;
  }

  // f_wv = f(s_w, r_v), cached; bit-identical to LinkSystem::CrossDecay.
  double CrossDecay(int w, int v) const {
    return cross_decay_[static_cast<std::size_t>(w) *
                            static_cast<std::size_t>(n_) +
                        static_cast<std::size_t>(v)];
  }

  // Normalised-gain kernel of the power-control fixed point (Foschini-
  // Miljanic): B(v, w) = beta * f_vv / f(s_w, r_v), zero diagonal.
  // Computed on demand from the cached decay/cross matrices with exactly
  // the per-entry expression FeasibleWithPowerControl's naive path builds
  // (beta * f_ii / CrossDecay), so the cached fixed point stays
  // bit-identical -- without charging every KernelCache build an n x n
  // matrix only the power-control oracle reads.
  double NormalizedGain(int v, int w) const {
    if (w == v) return 0.0;
    return system_->config().beta * LinkDecay(v) / CrossDecay(w, v);
  }

  // min{f(s_v,r_w), f(s_w,r_v), f(s_v,s_w), f(r_v,r_w)}: the link
  // quasi-distance before the ^{1/zeta}; zeta-independent.  Symmetric only
  // when the decay space is (the sender-sender / receiver-receiver legs are
  // ordered pairs).
  double MinPairDecay(int v, int w) const {
    return min_pair_decay_[static_cast<std::size_t>(v) *
                               static_cast<std::size_t>(n_) +
                           static_cast<std::size_t>(w)];
  }

  // --- aggregate queries, bit-identical to the LinkSystem versions -------

  double InAffectance(std::span<const int> S, int v) const;
  double OutAffectance(int v, std::span<const int> S) const;
  bool IsFeasible(std::span<const int> S) const;
  bool IsKFeasible(std::span<const int> S, double K) const;
  double MaxInAffectance(std::span<const int> S) const;

  // Raw SINR of l_v when exactly the links in S transmit, against the
  // cache's power assignment: the interference sum runs over S in order,
  // reading the cached cross-decay row instead of the decay matrix, so the
  // result is bit-identical to LinkSystem::Sinr(v, S, power()).  The per-
  // slot success checks of the dynamics simulators (random access, the
  // regret game) run on this.
  double Sinr(int v, std::span<const int> S) const;

  // d_vv^{1/zeta} and d(l_v, l_w); one pow per call against cached decays.
  double LinkLength(int v, double zeta) const;
  double LinkDistance(int v, int w, double zeta) const;
  bool IsSeparatedFrom(int v, std::span<const int> L, double eta,
                       double zeta) const;

  // Link ids sorted by non-decreasing f_vv (ties by id), as
  // LinkSystem::OrderByDecay but against the cached decay array.
  std::vector<int> OrderByDecay() const {
    return DecayOrder(*this, AllLinks(system()));
  }

  // True when every power entry is bitwise identical (enables the
  // ratio-elision fast path during construction; queries are unaffected).
  bool HasUniformPower() const noexcept { return uniform_power_; }

  // Bytes held by the dense matrices and per-link arrays (capacity, so a
  // warm arena slot reports what it actually retains).
  long long MemoryBytes() const noexcept;

 private:
  friend class AffectanceAccumulator;
  friend class KernelArena;

  // Empty cache (n = 0, no system): every query but NumLinks would
  // dereference the null system, so only KernelArena -- which always
  // Rebuilds before handing the cache out -- may construct one.
  KernelCache() = default;

  // (Re)builds every matrix for (system, power); `scratch` provides the
  // transpose workspace so arena rebuilds allocate nothing once warm.
  void Build(const LinkSystem& system, PowerAssignment power,
             std::vector<double>& scratch,
             KernelBuildPath path = KernelBuildPath::kTiled);

  // Build's n x n slabs, reading the decay space through decay(p, q): a
  // dense matrix read in place, or a coordinate-backed space's on-demand
  // evaluation (`mirror_legs`: the space is symmetric, so MinPairDecay's
  // endpoint legs are evaluated once per unordered pair).
  template <class Decay>
  void FillSlabs(const Decay& decay, bool mirror_legs,
                 std::span<const int> snd, std::span<const int> rcv,
                 std::vector<double>& scratch, KernelBuildPath path);

  const LinkSystem* system_ = nullptr;
  PowerAssignment power_;
  int n_ = 0;
  bool uniform_power_ = true;
  std::vector<double> link_decay_;    // f_vv
  std::vector<char> can_overcome_;    // P_v / f_vv > beta N
  std::vector<double> noise_factor_;  // c_v (0 when !can_overcome_)
  std::vector<double> aff_raw_;       // [w*n + v] = a_w(v), unclamped
  std::vector<double> aff_raw_t_;     // [v*n + w] = a_w(v)  (transpose)
  std::vector<double> min_pair_decay_;  // [v*n + w], symmetric
  std::vector<double> cross_decay_;     // [w*n + v] = f(s_w, r_v)
};

// Reusable KernelCache storage: one cache slot plus the build scratch,
// rebuilt in place instead of reallocated.  Same-shape rebuilds (the batch
// and sweep runners build thousands of caches of identical n) touch the
// allocator zero times once the slot is warm; different shapes simply
// re-grow.  The rebuilt cache is bit-identical to a freshly constructed
// KernelCache over the same (system, power) -- Build overwrites every
// entry, so nothing of the previous instance survives.  One arena per
// worker thread; the returned reference is valid until the next Rebuild.
class KernelArena {
 public:
  // The returned reference is invalidated by the next Rebuild, and the
  // rebuilt cache holds a pointer into `system` -- do not keep either
  // beyond the system's lifetime (there is deliberately no accessor for
  // the last-built cache: it would dangle once the batch's instances are
  // destroyed).
  const KernelCache& Rebuild(const LinkSystem& system, PowerAssignment power,
                             KernelBuildPath path = KernelBuildPath::kTiled);

  long long rebuilds() const noexcept { return rebuilds_; }
  // Rebuilds whose link count matched the warm slot's, so every matrix
  // resize was a no-op and the allocator (and, for same-shape slabs, the
  // pre-clearing memsets) were skipped entirely -- the case the arena
  // exists for.  rebuilds() - warm_skips() is the number of cold/grow
  // builds (first touch, or a cell-shape change mid-sweep).
  long long warm_skips() const noexcept { return warm_skips_; }

 private:
  KernelCache slot_;
  std::vector<double> scratch_;
  long long rebuilds_ = 0;
  long long warm_skips_ = 0;
};

// Running in/out-affectance sums over a growing (or shrinking) set of links.
// Add/Remove are O(n); queries are O(1).  Sums accumulate in insertion
// order, so after Add(s_1), ..., Add(s_k):
//     In(v)  == system.InAffectance({s_1..s_k}, v, power)   bit-for-bit,
//     Out(v) == system.OutAffectance(v, {s_1..s_k}, power)  bit-for-bit,
// and likewise for the unclamped Raw variants.  Remove subtracts the entry
// that Add added; note that floating-point subtraction does not perfectly
// undo earlier absorption, so heavy add/remove churn can drift by ulps from
// a from-scratch sum (the greedy admission loops only ever Add).
class AffectanceAccumulator {
 public:
  explicit AffectanceAccumulator(const KernelCache& kernel);

  void Add(int v);
  void Remove(int v);
  void Clear();

  const std::vector<int>& members() const noexcept { return members_; }
  int size() const noexcept { return static_cast<int>(members_.size()); }
  bool Contains(int v) const {
    return in_set_[static_cast<std::size_t>(v)] != 0;
  }

  // Sum over current members w of min(1, a_w(v)) resp. min(1, a_v(w)).
  double In(int v) const { return in_[static_cast<std::size_t>(v)]; }
  double Out(int v) const { return out_[static_cast<std::size_t>(v)]; }
  // Unclamped sums (the feasibility form).
  double InRaw(int v) const { return in_raw_[static_cast<std::size_t>(v)]; }
  double OutRaw(int v) const { return out_raw_[static_cast<std::size_t>(v)]; }

  // True iff members() + {v} is feasible, deciding exactly as the naive
  // push-IsFeasible-pop loop does: the candidate's in-affectance is the
  // running raw sum (its own entry contributes a trailing +0), and each
  // member's new total is its running sum plus the candidate's row entry.
  // The caller must have checked kernel.CanOvercomeNoise(v).
  bool CanAddFeasibly(int v) const;

  // Algorithm 1's admission budget a_v(X) + a_X(v) <= 1/2 over the members
  // X, summed in admission order as the naive path sums them.
  bool BudgetWithinHalf(int v) const { return Out(v) + In(v) <= 0.5; }

  // SeparationOracle(kernel, eta, zeta).IsSeparatedFrom(v, members()).
  bool IsSeparatedFromMembers(int v, double eta, double zeta) const;

 private:
  const KernelCache* kernel_;
  std::vector<int> members_;
  std::vector<char> in_set_;
  std::vector<double> in_, out_, in_raw_, out_raw_;
};

// Separation predicates for fixed (eta, zeta), evaluated in the decay
// domain: d(l_v, l_w) >= eta * d_vv  <=>  MinPairDecay >= eta^zeta * f_vv
// (exact arithmetic).  No pow on the hot path; a 1e-9 relative guard band
// around the threshold falls back to the naive pow comparison, so decisions
// are bit-compatible with LinkSystem::IsSeparatedFrom except for inputs
// within the band of a threshold.
class SeparationOracle {
 public:
  SeparationOracle(const KernelCache& kernel, double eta, double zeta);

  // d(l_v, l_w) >= eta * d_vv (asymmetric: v's length sets the scale).
  bool IsSeparated(int v, int w) const;

  // True iff IsSeparated(v, w) for every w in L (entries equal to v skip).
  bool IsSeparatedFrom(int v, std::span<const int> L) const;

  // d(l_v, l_w) < eta * max(d_vv, d_ww): the conflict test of the
  // separation partition (Lemma B.3).
  bool ConflictMaxLength(int v, int w) const;

 private:
  bool Decide(double min_pair, double scale_decay) const;

  const KernelCache* kernel_;
  double eta_;
  double inv_zeta_;
  double eta_pow_;  // eta^zeta
  static constexpr double kBand = 1e-9;
};

}  // namespace decaylib::sinr
