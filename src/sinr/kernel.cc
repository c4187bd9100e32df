#include "sinr/kernel.h"

#include <algorithm>

#include "core/check.h"
#include "core/decay_space.h"
#include "geom/point.h"
#include "obs/registry.h"

namespace decaylib::sinr {

namespace {

std::size_t Idx(int a, int b, int n) {
  return static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(b);
}

// Registry handles for the kernel layer, resolved once (static locals) so
// the hot paths pay one enabled-flag branch per event, not a map lookup.
// Metric name catalogue: docs/observability.md.
obs::Counter& KernelBuildCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.kernel_builds");
  return counter;
}

obs::Counter& ArenaRebuildCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.arena_rebuilds");
  return counter;
}

obs::Counter& ArenaWarmSkipCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.arena_warm_skips");
  return counter;
}

obs::Counter& AdmissionCheckCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.admission_checks");
  return counter;
}

constexpr std::size_t kBlock = 32;
using Tile = double[kBlock][kBlock];

// One block of link pairs, v in [v0, v1) and w in [w0, w1), as tiles
// indexed [v - v0][w - w0]: the cross decays f(s_v, r_w) and f(s_w, r_v).
// Build reads only the entries with v < w.
struct BlockDecays {
  std::size_t v0 = 0, v1 = 0, w0 = 0, w1 = 0;
  Tile cross_vw;
  Tile cross_wv;
};

}  // namespace

KernelCache::KernelCache(const LinkSystem& system, PowerAssignment power,
                         KernelSlabs slabs) {
  Build(system, std::move(power), slabs);
}

void KernelCache::Build(const LinkSystem& system, PowerAssignment power,
                        KernelSlabs slabs) {
  KernelBuildCounter().Add();
  system_ = &system;
  power_ = std::move(power);
  n_ = system.NumLinks();
  slabs_ = slabs;
  DL_CHECK(static_cast<int>(power_.size()) == n_, "one power entry per link");
  const std::size_t n = static_cast<std::size_t>(n_);
  const core::DecaySpace& space = system.space();
  const double beta = system.config().beta;
  const double noise = system.config().noise;

  uniform_power_ = true;
  for (std::size_t v = 1; v < n; ++v) {
    if (power_[v] != power_[0]) {
      uniform_power_ = false;
      break;
    }
  }

  // Every container below is fully overwritten (assign, or resize followed
  // by a write to each entry), so rebuilding into a warm arena slot yields
  // the same bits as a fresh construction.
  link_decay_.resize(n);
  can_overcome_.resize(n);
  noise_factor_.assign(n, 0.0);
  for (int v = 0; v < n_; ++v) {
    const std::size_t sv = static_cast<std::size_t>(v);
    link_decay_[sv] = system.LinkDecay(v);
    // Same expressions as LinkSystem::CanOvercomeNoise / NoiseFactor.
    const double signal = power_[sv] / link_decay_[sv];
    can_overcome_[sv] = signal > beta * noise ? 1 : 0;
    if (can_overcome_[sv]) {
      noise_factor_[sv] = beta / (1.0 - beta * noise / signal);
    }
  }

  // The slabs read the space through one per-block accessor, instantiated
  // per representation so the dense reads stay branch-free.
  std::vector<int> snd(n), rcv(n);
  for (int v = 0; v < n_; ++v) {
    snd[static_cast<std::size_t>(v)] = system.link(v).sender;
    rcv[static_cast<std::size_t>(v)] = system.link(v).receiver;
  }
  if (!space.IsCoordinateBacked()) {
    // A dense space may be asymmetric: both orientations are read.  The
    // v-major sweep reads row s_v of f, the w-major sweep row s_w, so no
    // read walks a column of the node matrix.
    const double* f = space.Raw().data();
    const std::size_t m = static_cast<std::size_t>(space.size());
    const auto at = [f, m](int p, int q) {
      return f[static_cast<std::size_t>(p) * m + static_cast<std::size_t>(q)];
    };
    FillSlabs([&](BlockDecays& b) {
      for (std::size_t v = b.v0; v < b.v1; ++v) {
        for (std::size_t w = b.w0; w < b.w1; ++w) {
          b.cross_vw[v - b.v0][w - b.w0] = at(snd[v], rcv[w]);
        }
      }
      for (std::size_t w = b.w0; w < b.w1; ++w) {
        for (std::size_t v = b.v0; v < b.v1; ++v) {
          b.cross_wv[v - b.v0][w - b.w0] = at(snd[w], rcv[v]);
        }
      }
    });
    return;
  }

  // A coordinate-backed space evaluates each decay on demand, once per
  // ordered pair the build reads.
  FillSlabs([&](BlockDecays& b) {
    for (std::size_t v = b.v0; v < b.v1; ++v) {
      for (std::size_t w = std::max(b.w0, v + 1); w < b.w1; ++w) {
        b.cross_vw[v - b.v0][w - b.w0] = space(snd[v], rcv[w]);
        b.cross_wv[v - b.v0][w - b.w0] = space(snd[w], rcv[v]);
      }
    }
  });
}

template <class BlockFn>
void KernelCache::FillSlabs(const BlockFn& fill_block) {
  // One pass over 32 x 32 blocks of unordered link pairs v < w: each block
  // is gathered into tiles, then written to every requested matrix in both
  // orientations as row segments -- row v over w, then row w over v -- so
  // no matrix is transposed, re-read or written a column at a time.
  // Entries are bit-identical to the naive LinkSystem methods: a_w(v) is
  // LinkSystem::AffectanceRaw's expression with c_v and f_vv hoisted, and
  // under uniform power the P_w / P_v factor equals exactly 1.0 (IEEE
  // x / x == 1.0), so those two ops are skipped without changing the
  // rounded result.  The diagonal is written explicitly -- f(s_v, r_v) =
  // f_vv and a_v(v) = 0 -- so with every entry written no matrix needs
  // pre-clearing: a fresh slab is left unzeroed (Slab) and a warm arena
  // slab's resize is a no-op.  A slab that is not requested is neither
  // resized nor written.
  const std::size_t n = static_cast<std::size_t>(n_);
  // The requested slabs, each with the tiles of its v < w and w < v halves.
  struct Target {
    double* out;
    const Tile* upper;
    const Tile* lower;
  };
  BlockDecays b;
  Tile a_vw;  // a_v(w)
  Tile a_wv;  // a_w(v)
  const bool affectance_on = Has(KernelSlabs::kAffectance);
  std::vector<Target> targets;
  const auto add = [&](KernelSlabs slab, Slab& matrix, const Tile& upper,
                       const Tile& lower) {
    if (!Has(slab)) return;
    matrix.resize(n * n);
    targets.push_back({matrix.data(), &upper, &lower});
  };
  add(KernelSlabs::kCrossDecay, cross_decay_, b.cross_vw, b.cross_wv);
  add(KernelSlabs::kAffectance, aff_raw_, a_vw, a_wv);
  if (targets.empty()) return;  // a build with no slab has no pair pass

  // a_w(v), w != v, from f(s_w, r_v).
  const auto affectance = [&](std::size_t w, std::size_t v, double cross_wv) {
    if (!can_overcome_[v]) return 0.0;
    if (uniform_power_) return noise_factor_[v] * (link_decay_[v] / cross_wv);
    return noise_factor_[v] *
           (power_[w] / power_[v] * link_decay_[v] / cross_wv);
  };

  for (b.v0 = 0; b.v0 < n; b.v0 += kBlock) {
    b.v1 = std::min(n, b.v0 + kBlock);
    for (b.w0 = b.v0; b.w0 < n; b.w0 += kBlock) {
      b.w1 = std::min(n, b.w0 + kBlock);
      fill_block(b);
      if (affectance_on) {
        for (std::size_t v = b.v0; v < b.v1; ++v) {
          for (std::size_t w = std::max(b.w0, v + 1); w < b.w1; ++w) {
            const std::size_t i = v - b.v0, j = w - b.w0;
            a_vw[i][j] = affectance(v, w, b.cross_vw[i][j]);
            a_wv[i][j] = affectance(w, v, b.cross_wv[i][j]);
          }
        }
      }
      for (const Target& t : targets) {
        for (std::size_t v = b.v0; v < b.v1; ++v) {
          for (std::size_t w = std::max(b.w0, v + 1); w < b.w1; ++w) {
            t.out[v * n + w] = (*t.upper)[v - b.v0][w - b.w0];
          }
        }
        for (std::size_t w = b.w0; w < b.w1; ++w) {
          for (std::size_t v = b.v0; v < std::min(b.v1, w); ++v) {
            t.out[w * n + v] = (*t.lower)[v - b.v0][w - b.w0];
          }
        }
      }
    }
  }
  for (const Target& t : targets) {
    for (std::size_t v = 0; v < n; ++v) t.out[v * n + v] = 0.0;
  }
  if (Has(KernelSlabs::kCrossDecay)) {
    for (std::size_t v = 0; v < n; ++v) {
      cross_decay_[v * n + v] = link_decay_[v];
    }
  }
}

void KernelCache::Require(KernelSlabs slabs) const {
  DL_CHECK(Has(slabs),
           "kernel slab not built: build the KernelCache with every slab "
           "this entry point reads");
}

// --- KernelArena -------------------------------------------------------------

const KernelCache& KernelArena::Rebuild(const LinkSystem& system,
                                        PowerAssignment power,
                                        KernelSlabs slabs) {
  // Warm iff the slot already holds every requested matrix at this link
  // count: every resize inside Build is then a no-op and no allocation
  // happens.  A slab the slot holds but this build does not request keeps
  // its capacity for a later build.
  const std::size_t nn = static_cast<std::size_t>(system.NumLinks()) *
                         static_cast<std::size_t>(system.NumLinks());
  const auto sized = [&](KernelSlabs slab, const KernelCache::Slab& matrix) {
    return !Includes(slabs, slab) || matrix.size() == nn;
  };
  const bool warm =
      slot_.system_ != nullptr && slot_.n_ == system.NumLinks() &&
      sized(KernelSlabs::kAffectance, slot_.aff_raw_) &&
      sized(KernelSlabs::kCrossDecay, slot_.cross_decay_);
  slot_.Build(system, std::move(power), slabs);
  ++rebuilds_;
  if (warm) ++warm_skips_;
  ArenaRebuildCounter().Add();
  if (warm) ArenaWarmSkipCounter().Add();
  return slot_;
}

bool KernelCache::IsFeasible(std::span<const int> S) const {
  Require(KernelSlabs::kAffectance);
  for (int v : S) {
    if (!CanOvercomeNoise(v)) return false;
    // Column v, a_.(v), in S order: LinkSystem::IsFeasible's sum.
    double total = 0.0;
    for (int w : S) total += AffectanceRaw(w, v);
    if (total > 1.0) return false;
  }
  return true;
}

// --- AffectanceAccumulator -------------------------------------------------

AffectanceAccumulator::AffectanceAccumulator(const KernelCache& kernel)
    : kernel_(&kernel) {
  kernel.Require(KernelSlabs::kAffectance);
  const std::size_t n = static_cast<std::size_t>(kernel.NumLinks());
  in_set_.assign(n, 0);
  in_.assign(n, 0.0);
  in_raw_.assign(n, 0.0);
}

void AffectanceAccumulator::Add(int v) {
  DL_CHECK(!Contains(v), "link already in the accumulator");
  const int n = kernel_->NumLinks();
  // Row v of the matrix is a_v(.): v's pressure on every link.
  const double* from_v = kernel_->aff_raw_.data() + Idx(v, 0, n);
  for (int u = 0; u < n; ++u) {
    const std::size_t su = static_cast<std::size_t>(u);
    const double av_u = from_v[su];
    in_raw_[su] += av_u;
    in_[su] += av_u < 1.0 ? av_u : 1.0;
  }
  members_.push_back(v);
  in_set_[static_cast<std::size_t>(v)] = 1;
}

double AffectanceAccumulator::Out(int v) const {
  // Members in admission order, as the naive OutAffectance sums them.
  double total = 0.0;
  for (int w : members_) total += kernel_->Affectance(v, w);
  return total;
}

bool AffectanceAccumulator::BudgetWithinHalf(int v) const {
  // Out(v)'s fold.  Its terms are non-negative and rounding is monotone, so
  // the partial sums never shrink: once one plus In(v) exceeds 1/2, the
  // full sum does too.
  const double in = In(v);
  double out = 0.0;
  for (int w : members_) {
    out += kernel_->Affectance(v, w);
    if (out + in > 0.5) return false;
  }
  return out + in <= 0.5;
}

bool AffectanceAccumulator::CanAddFeasibly(int v) const {
  AdmissionCheckCounter().Add();
  if (InRaw(v) > 1.0) return false;
  for (int w : members_) {
    if (InRaw(w) + kernel_->AffectanceRaw(v, w) > 1.0) return false;
  }
  return true;
}

bool AffectanceAccumulator::IsSeparatedFromMembers(int v, double eta,
                                                   double zeta) const {
  return SeparationOracle(*kernel_, eta, zeta).IsSeparatedFrom(v, members_);
}

void AffectanceAccumulator::Clear() {
  std::fill(in_set_.begin(), in_set_.end(), 0);
  std::fill(in_.begin(), in_.end(), 0.0);
  std::fill(in_raw_.begin(), in_raw_.end(), 0.0);
  members_.clear();
}

// --- SeparationOracle --------------------------------------------------------

SeparationOracle::SeparationOracle(const KernelCache& kernel, double eta,
                                   double zeta)
    : kernel_(&kernel), exponents_(eta, zeta) {
  DL_CHECK(eta > 0.0 && zeta > 0.0, "eta and zeta must be positive");
}

bool SeparationOracle::AllSeparated(double scale, int v,
                                    std::span<const int> L) const {
  const LinkSystem& system = kernel_->system();
  const core::DecaySpace& f = system.space();
  const SeparationTest test(exponents_, scale, f.alpha());
  // Empty unless coordinate-backed, where f(p, q) would be a pow per call.
  const std::span<const geom::Vec2> pts = f.points();
  const auto at = [pts](int p) { return pts[static_cast<std::size_t>(p)]; };
  const Link lv = system.link(v);
  for (int w : L) {
    if (w == v) continue;
    const Link lw = system.link(w);
    const bool separated =
        pts.empty()
            ? test.Separated(std::min(std::min(f(lv.sender, lw.receiver),
                                               f(lw.sender, lv.receiver)),
                                      std::min(f(lv.sender, lw.sender),
                                               f(lv.receiver, lw.receiver))))
            : test.Separated(at(lv.sender), at(lv.receiver), at(lw.sender),
                             at(lw.receiver));
    if (!separated) return false;
  }
  return true;
}

bool SeparationOracle::IsSeparatedFrom(int v, std::span<const int> L) const {
  return AllSeparated(kernel_->LinkDecay(v), v, L);
}

bool SeparationOracle::ConflictMaxLength(int v, int w) const {
  const double scale = std::max(kernel_->LinkDecay(v), kernel_->LinkDecay(w));
  return !AllSeparated(scale, v, std::span<const int>(&w, 1));
}

long long KernelCache::MemoryBytes() const noexcept {
  const std::size_t doubles = aff_raw_.capacity() + cross_decay_.capacity() +
                              link_decay_.capacity() +
                              noise_factor_.capacity();
  return static_cast<long long>(doubles * sizeof(double) +
                                can_overcome_.capacity() * sizeof(char));
}

}  // namespace decaylib::sinr
