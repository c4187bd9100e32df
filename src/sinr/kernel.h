// Cached SINR kernel layer: precompute-once, reuse-everywhere.
//
// Every algorithm in the library (Algorithm 1 capacity, weighted capacity,
// partitions, scheduling, exact solvers) reduces to dense pairwise kernels
// over the decay space: affectances a_w(v), link quasi-distances
// d(l_v, l_w) = min-endpoint-decay^{1/zeta}, and running in/out-affectance
// sums.  The naive LinkSystem methods recompute every kernel entry on every
// query -- AffectanceRaw re-derives the noise factor c_v per pair, and
// LinkDistance performs four std::pow calls per pair per call.  KernelCache
// materialises up to two n x n matrices once so that queries become O(1)
// lookups; AffectanceAccumulator turns the O(|S|) in-affectance
// re-summations of greedy admission loops into O(1) reads with O(n)
// per-admission updates;
// SeparationOracle evaluates eta/zeta separation predicates with the
// tiers' shared SeparationTest (kernel_tier.h), straight from the decay
// space: no slab, and no pow on the hot path.  The cache also materialises
// the cross-decay kernel, which the power-control queries (power_control.h,
// one body for this cache and LinkSystem) and the SINR gain rows
// (gain_rows.h) read.  KernelArena rebuilds a cache slot in place so
// batched/swept runs stop paying the allocator per instance.
//
// A build fills only the slabs it is asked for (KernelSlabs): capacity and
// scheduling read the affectance slab, the SINR simulations and power
// control read the cross-decay slab, so a caller that runs only one family
// pays n^2 doubles per slab it reads and no more.  Every entry point that
// reads a slab DL_CHECKs that it was built.
//
// Bit-exactness contract: for the same (system, power), every query method
// here returns *bit-for-bit* the same double as the corresponding naive
// LinkSystem method.  The cached entries are computed with the identical
// floating-point expression (same association order), and aggregate sums run
// in the same iteration order.  Two non-obvious identities make this work:
//   * min over the four endpoint quasi-distances commutes with pow:
//     pow is weakly monotone, so min_i pow(f_i, s) == pow(min_i f_i, s) --
//     a separation test therefore needs at most one pow per pair, not four;
//   * x / x == 1.0 exactly in IEEE arithmetic, so under uniform power the
//     ratio P_w / P_v can be elided from the affectance expression without
//     changing the rounded result.
// The only deliberate deviation is the separation verdict both tiers share
// (SeparationTest, kernel_tier.h), which compares in the decay domain
// (m >= eta^zeta * f_vv instead of m^{1/zeta} >= eta * f_vv^{1/zeta}) --
// over a coordinate-backed space on squared distances first -- and falls
// back to the naive pow expression inside a 1e-9 relative guard band, so
// decisions match the naive path except for inputs engineered to sit
// within ~1e-9 of a separation threshold.
#pragma once

#include <memory>
#include <new>
#include <span>
#include <vector>

#include "sinr/kernel_tier.h"
#include "sinr/link_system.h"

namespace decaylib::sinr {

class AffectanceAccumulator;

// The n x n slabs a KernelCache can hold, as a bit set.  The per-link
// arrays (link decay, noise factor) are always built.
enum class KernelSlabs : unsigned {
  kNone = 0,
  // a_w(v): AffectanceAccumulator, IsFeasible.
  kAffectance = 1u << 0,
  // CrossDecay: the power-control queries (power_control.h) and GainRows.
  kCrossDecay = 1u << 1,
  kAll = kAffectance | kCrossDecay,
};

constexpr KernelSlabs operator|(KernelSlabs a, KernelSlabs b) {
  return static_cast<KernelSlabs>(static_cast<unsigned>(a) |
                                  static_cast<unsigned>(b));
}

// True iff every slab of `slabs` is in `set`.
constexpr bool Includes(KernelSlabs set, KernelSlabs slabs) {
  return (static_cast<unsigned>(set) & static_cast<unsigned>(slabs)) ==
         static_cast<unsigned>(slabs);
}

// Precomputed affectance/distance kernels for one (LinkSystem, power) pair.
// Holds a reference to the system; the system (and its decay space) must
// outlive the cache.  Construction costs O(n^2) time and |slabs| * n^2
// doubles of memory, the requested matrices filled in one pass over
// unordered link pairs.  Over a coordinate-backed space it evaluates the
// n^2 cross decays, and the resulting matrices are bit-identical to those
// over the dense space.
class KernelCache {
 public:
  // The dense tier's running sums (the KernelTier concept, kernel_tier.h).
  using Accumulator = AffectanceAccumulator;

  // Builds the requested slabs; with no set, every slab.
  KernelCache(const LinkSystem& system, PowerAssignment power,
              KernelSlabs slabs = KernelSlabs::kAll);

  int NumLinks() const noexcept { return n_; }
  // True iff this cache was built with every slab of `slabs`; the others
  // must not be read.
  bool Has(KernelSlabs slabs) const noexcept {
    return Includes(slabs_, slabs);
  }
  // DL_CHECKs that `slabs` were built.  The entry points that read a slab
  // (the accumulator constructor, the aggregate queries, the
  // power-control queries, GainRows) call it once, so the per-entry
  // accessors stay branch-free.
  void Require(KernelSlabs slabs) const;
  const LinkSystem& system() const noexcept { return *system_; }
  const SinrConfig& config() const noexcept { return system_->config(); }
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

  // --- aggregate queries, bit-identical to the LinkSystem versions -------

  bool IsFeasible(std::span<const int> S) const;

  // Link ids sorted by non-decreasing f_vv (ties by id), as
  // LinkSystem::OrderByDecay but against the cached decay array.
  std::vector<int> OrderByDecay() const {
    return DecayOrder(*this, AllLinks(system()));
  }

  // True when every power entry is bitwise identical (enables the
  // ratio-elision fast path during construction; queries are unaffected).
  bool HasUniformPower() const noexcept { return uniform_power_; }

  // Bytes held by the dense matrices and per-link arrays (capacity, so a
  // warm arena slot reports what it actually retains, including slabs a
  // later build did not request).
  long long MemoryBytes() const noexcept;

 private:
  friend class AffectanceAccumulator;
  friend class KernelArena;

  // The n x n matrices.  Build writes every entry, so resize leaves new
  // doubles unwritten instead of zero-filling them: a fresh cache touches
  // each slab once, not twice.
  template <class T>
  struct UnzeroedAllocator : std::allocator<T> {
    using std::allocator<T>::allocator;
    template <class U>
    struct rebind {
      using other = UnzeroedAllocator<U>;
    };
    template <class U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
  };
  using Slab = std::vector<double, UnzeroedAllocator<double>>;

  // Empty cache (n = 0, no system): every query but NumLinks would
  // dereference the null system, so only KernelArena -- which always
  // Rebuilds before handing the cache out -- may construct one.
  KernelCache() = default;

  // (Re)builds the requested matrices for (system, power) in place, so
  // arena rebuilds of the same shape allocate nothing.  Slabs not requested
  // are left as they are (an arena slot keeps their capacity).
  void Build(const LinkSystem& system, PowerAssignment power,
             KernelSlabs slabs);

  // Build's n x n slabs, in one pass over blocks of unordered link pairs;
  // `fill_block` gathers a block's cross decays in both orientations, read
  // from a dense matrix or evaluated over a coordinate-backed space.
  template <class BlockFn>
  void FillSlabs(const BlockFn& fill_block);

  const LinkSystem* system_ = nullptr;
  PowerAssignment power_;
  int n_ = 0;
  KernelSlabs slabs_ = KernelSlabs::kNone;
  bool uniform_power_ = true;
  std::vector<double> link_decay_;    // f_vv
  std::vector<char> can_overcome_;    // P_v / f_vv > beta N
  std::vector<double> noise_factor_;  // c_v (0 when !can_overcome_)
  Slab aff_raw_;      // [w*n + v] = a_w(v), unclamped
  Slab cross_decay_;  // [w*n + v] = f(s_w, r_v)
};

// Reusable KernelCache storage: one cache slot, rebuilt in place instead of
// reallocated (the build needs no workspace beyond the cache's own
// matrices).  Same-shape rebuilds (the batch and sweep runners build
// thousands of caches of identical n) touch the allocator zero times once
// the slot is warm; different shapes, or a slab the slot has not held yet,
// simply re-grow.  The rebuilt cache is
// bit-identical to a freshly constructed KernelCache over the same
// (system, power) -- Build overwrites every entry, so nothing of the
// previous instance survives.  One arena per worker thread; the returned
// reference is valid until the next Rebuild.
class KernelArena {
 public:
  // The returned reference is invalidated by the next Rebuild, and the
  // rebuilt cache holds a pointer into `system` -- do not keep either
  // beyond the system's lifetime (there is deliberately no accessor for
  // the last-built cache: it would dangle once the batch's instances are
  // destroyed).
  const KernelCache& Rebuild(const LinkSystem& system, PowerAssignment power,
                             KernelSlabs slabs = KernelSlabs::kAll);

  long long rebuilds() const noexcept { return rebuilds_; }
  // Rebuilds whose link count matched the warm slot's and whose every
  // requested slab was already sized, so every matrix resize was a no-op
  // and the allocator was skipped entirely -- the case the arena exists
  // for.  rebuilds() - warm_skips() is the number of cold/grow
  // builds (first touch, or a cell-shape change mid-sweep).
  long long warm_skips() const noexcept { return warm_skips_; }

 private:
  KernelCache slot_;
  long long rebuilds_ = 0;
  long long warm_skips_ = 0;
};

// Running in-affectance sums over a growing set of links, over a kernel
// built with KernelSlabs::kAffectance.  Add is O(n) (row v of the one
// affectance matrix); In is O(1) and Out O(|members|), a fold of row v over
// the members.  Both sum in insertion order, so after Add(s_1), ..., Add(s_k):
//     In(v)    == system.InAffectance({s_1..s_k}, v, power)   bit-for-bit,
//     Out(v)   == system.OutAffectance(v, {s_1..s_k}, power)  bit-for-bit,
// and InRaw(v) is the unclamped in-sum (the feasibility form).  There is
// no Remove: the admission loops only ever Add (or Clear and start over),
// so every sum is a from-scratch fold, never a subtraction that could drift
// by ulps.
class AffectanceAccumulator {
 public:
  explicit AffectanceAccumulator(const KernelCache& kernel);

  void Add(int v);
  void Clear();

  const std::vector<int>& members() const noexcept { return members_; }
  int size() const noexcept { return static_cast<int>(members_.size()); }
  bool Contains(int v) const {
    return in_set_[static_cast<std::size_t>(v)] != 0;
  }

  // Sum over current members w of min(1, a_w(v)) resp. min(1, a_v(w)).
  double In(int v) const { return in_[static_cast<std::size_t>(v)]; }
  double Out(int v) const;
  // Unclamped in-sum (the feasibility form).
  double InRaw(int v) const { return in_raw_[static_cast<std::size_t>(v)]; }

  // Algorithm 1's final filter a_X(v) <= 1 (the KernelTier concept).
  bool InWithinOne(int v) const { return In(v) <= 1.0; }

  // True iff members() + {v} is feasible, deciding exactly as the naive
  // push-IsFeasible-pop loop does: the candidate's in-affectance is the
  // running raw sum (its own entry contributes a trailing +0), and each
  // member's new total is its running sum plus the candidate's row entry.
  // The caller must have checked kernel.CanOvercomeNoise(v).
  bool CanAddFeasibly(int v) const;

  // Algorithm 1's admission budget a_v(X) + a_X(v) <= 1/2 over the members
  // X, summed in admission order as the naive path sums them.  Decides as
  // Out(v) + In(v) <= 0.5 but stops folding Out(v) once the partial sum
  // already exceeds the budget.
  bool BudgetWithinHalf(int v) const;

  // SeparationOracle(kernel, eta, zeta).IsSeparatedFrom(v, members()).
  bool IsSeparatedFromMembers(int v, double eta, double zeta) const;

 private:
  const KernelCache* kernel_;
  std::vector<int> members_;
  std::vector<char> in_set_;
  std::vector<double> in_, in_raw_;
};

// Separation predicates for fixed (eta, zeta), each pair decided by
// SeparationTest (kernel_tier.h) from the kernel's decay space: from the
// endpoint coordinates when it is coordinate-backed, from four matrix
// entries otherwise.  Reads no slab, and construction is O(1).  Decisions
// are bit-compatible with LinkSystem::IsSeparatedFrom except for inputs
// within ~1e-9 of a threshold.
class SeparationOracle {
 public:
  SeparationOracle(const KernelCache& kernel, double eta, double zeta);

  // True iff d(l_v, l_w) >= eta * d_vv for every w in L (asymmetric: v's
  // length sets the scale; entries equal to v skip).
  bool IsSeparatedFrom(int v, std::span<const int> L) const;

  // d(l_v, l_w) < eta * max(d_vv, d_ww): the conflict test of the
  // separation partition (Lemma B.3).
  bool ConflictMaxLength(int v, int w) const;

 private:
  // SeparationTest's verdict at `scale` on (l_v, l_w) for every w in L
  // other than v.
  bool AllSeparated(double scale, int v, std::span<const int> L) const;

  const KernelCache* kernel_;
  SeparationExponents exponents_;
};

}  // namespace decaylib::sinr
