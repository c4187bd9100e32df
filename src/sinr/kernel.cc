#include "sinr/kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"
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

}  // namespace

KernelCache::KernelCache(const LinkSystem& system, PowerAssignment power,
                         KernelBuildPath path) {
  std::vector<double> scratch;
  Build(system, std::move(power), scratch, path);
}

void KernelCache::Build(const LinkSystem& system, PowerAssignment power,
                        std::vector<double>& scratch, KernelBuildPath path) {
  KernelBuildCounter().Add();
  system_ = &system;
  power_ = std::move(power);
  n_ = system.NumLinks();
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

  // Endpoint index arrays.  The slabs read the space through one accessor:
  // a dense space's matrix in place, a coordinate-backed one's on-demand
  // evaluation -- one build algorithm, instantiated per representation so
  // the dense reads stay branch-free.  The one inherently transposed
  // quantity, the cross-decay f(s_w, r_v) indexed v-major, is produced by a
  // blocked n x n transpose of the w-major cross matrix rather than by a
  // second column-order pass over the space.
  std::vector<int> snd(n), rcv(n);
  for (int v = 0; v < n_; ++v) {
    snd[static_cast<std::size_t>(v)] = system.link(v).sender;
    rcv[static_cast<std::size_t>(v)] = system.link(v).receiver;
  }
  if (space.IsCoordinateBacked()) {
    FillSlabs(space, /*mirror_legs=*/true, snd, rcv, scratch, path);
  } else {
    const double* f = space.Raw().data();
    const std::size_t m = static_cast<std::size_t>(space.size());
    FillSlabs(
        [f, m](int p, int q) {
          return f[static_cast<std::size_t>(p) * m +
                   static_cast<std::size_t>(q)];
        },
        /*mirror_legs=*/false, snd, rcv, scratch, path);
  }
}

template <class Decay>
void KernelCache::FillSlabs(const Decay& decay, bool mirror_legs,
                            std::span<const int> snd, std::span<const int> rcv,
                            std::vector<double>& scratch,
                            KernelBuildPath path) {
  const std::size_t n = static_cast<std::size_t>(n_);

  // cross_decay_[w*n + v] = f(s_w, r_v) = CrossDecay(w, v), plus its
  // transpose into the arena scratch.  The cross matrix is kept as a member:
  // it backs the CrossDecay query and the power-control kernels below.
  //
  // Both build paths write the same entries from the same expressions in the
  // same order within each entry, so the resulting matrices are
  // bit-identical; the paths differ only in how many sweeps over the n x n
  // slabs they take.  Entries are bit-identical to LinkSystem::AffectanceRaw
  // -- same expression, with c_v and f_vv hoisted.  Under uniform power the
  // P_w / P_v factor equals exactly 1.0 (IEEE x / x == 1.0), so the two
  // extra ops can be skipped without changing the rounded result.  Every
  // n x n matrix writes its zero entries explicitly instead of pre-clearing
  // with assign: on a warm arena slab the resize is then a no-op, saving one
  // full memset pass per matrix per rebuild (a fresh vector still
  // zero-initialises, so the cold path is unchanged).
  cross_decay_.resize(n * n);
  aff_raw_.resize(n * n);
  aff_raw_t_.resize(n * n);
  min_pair_decay_.resize(n * n);
  scratch.resize(n * n);
  double* cross = cross_decay_.data();
  double* cross_t = scratch.data();

  // The endpoint legs of MinPairDecay(v, w), min(f(s_v, s_w), f(r_v, r_w)).
  // A coordinate-backed space is symmetric by construction, so its legs are
  // evaluated once per unordered pair and mirrored into min_pair_decay_
  // ahead of the passes below, which combine them in place: n^2 cross
  // decays plus n^2 leg decays in all, against the (2n)^2 of a dense fill.
  // A dense space's legs are read per ordered pair (f may be asymmetric).
  if (mirror_legs) {
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t w = v + 1; w < n; ++w) {
        const double legs =
            std::min(decay(snd[v], snd[w]), decay(rcv[v], rcv[w]));
        min_pair_decay_[v * n + w] = legs;
        min_pair_decay_[w * n + v] = legs;
      }
    }
  }
  const auto endpoint_legs = [&](std::size_t v, std::size_t w) {
    return mirror_legs
               ? min_pair_decay_[v * n + w]
               : std::min(decay(snd[v], snd[w]), decay(rcv[v], rcv[w]));
  };

  const auto transpose_cross = [&] {
    constexpr std::size_t kTile = 32;
    for (std::size_t wb = 0; wb < n; wb += kTile) {
      for (std::size_t vb = 0; vb < n; vb += kTile) {
        const std::size_t we = std::min(n, wb + kTile);
        const std::size_t ve = std::min(n, vb + kTile);
        for (std::size_t w = wb; w < we; ++w) {
          for (std::size_t v = vb; v < ve; ++v) {
            cross_t[v * n + w] = cross[w * n + v];
          }
        }
      }
    }
  };

  if (path == KernelBuildPath::kScalar) {
    // Reference structure: one matrix per sweep.  Kept as the bit-identity
    // oracle the fused path is tested against (tests/kernel_test.cc).
    for (int w = 0; w < n_; ++w) {
      double* out = cross + static_cast<std::size_t>(w) * n;
      const int sw = snd[static_cast<std::size_t>(w)];
      for (int v = 0; v < n_; ++v) {
        out[v] = decay(sw, rcv[static_cast<std::size_t>(v)]);
      }
    }
    transpose_cross();

    // Raw affectance matrices: aff_raw_ row w = a_w(.), filled w-major (the
    // factors depending on the *target* v are O(n) arrays); the transpose
    // row v = a_.(v), filled v-major from cross_t.
    for (int w = 0; w < n_; ++w) {
      const std::size_t sw = static_cast<std::size_t>(w);
      double* out = aff_raw_.data() + sw * n;
      const double* cross_w = cross + sw * n;
      const double pw = power_[sw];
      for (int v = 0; v < n_; ++v) {
        const std::size_t sv = static_cast<std::size_t>(v);
        if (v == w || !can_overcome_[sv]) {
          out[sv] = 0.0;
        } else if (uniform_power_) {
          out[sv] = noise_factor_[sv] * (link_decay_[sv] / cross_w[sv]);
        } else {
          out[sv] = noise_factor_[sv] *
                    (pw / power_[sv] * link_decay_[sv] / cross_w[sv]);
        }
      }
    }
    for (int v = 0; v < n_; ++v) {
      const std::size_t sv = static_cast<std::size_t>(v);
      double* out = aff_raw_t_.data() + sv * n;
      if (!can_overcome_[sv]) {
        std::fill(out, out + n, 0.0);
        continue;
      }
      const double* cross_v = cross_t + sv * n;
      const double cv = noise_factor_[sv];
      const double fvv = link_decay_[sv];
      const double pv = power_[sv];
      for (int w = 0; w < n_; ++w) {
        const std::size_t sw = static_cast<std::size_t>(w);
        if (w == v) {
          out[sw] = 0.0;
        } else if (uniform_power_) {
          out[sw] = cv * (fvv / cross_v[sw]);
        } else {
          out[sw] = cv * (power_[sw] / pv * fvv / cross_v[sw]);
        }
      }
    }

    // Min-endpoint-decay matrix (zeta-independent part of the link
    // quasi-distance).  f(p, p) = 0 on the diagonal is exactly the naive
    // d(p, p) = 0 special case, so no branch is needed.  The matrix is
    // stored for ordered (v, w): in an asymmetric space the sender-sender
    // and receiver-receiver legs are ordered pairs, so d(l_v, l_w) need not
    // equal d(l_w, l_v).
    for (int v = 0; v < n_; ++v) {
      const std::size_t sv = static_cast<std::size_t>(v);
      double* out = min_pair_decay_.data() + sv * n;
      const double* cross_row_v = cross + sv * n;  // f(s_v, r_w) over w
      const double* cross_v = cross_t + sv * n;    // f(s_w, r_v) over w
      for (int w = 0; w < n_; ++w) {
        if (w == v) {
          out[static_cast<std::size_t>(w)] = 0.0;
          continue;
        }
        const std::size_t sw = static_cast<std::size_t>(w);
        const double sv_rw = cross_row_v[sw];  // f(s_v, r_w)
        const double sw_rv = cross_v[sw];      // f(s_w, r_v)
        out[sw] = std::min(std::min(sv_rw, sw_rv), endpoint_legs(sv, sw));
      }
    }
    return;
  }

  // Fused tiled path (default).  Pass 1 (w-major) derives the aff_raw row
  // from the cross row while the freshly written cross values are still in
  // registers/L1 -- at n = 16k each n x n slab is 2 GB, so a second sweep
  // re-reads it all from DRAM.  Pass 2 (v-major, after the blocked
  // transpose) fills aff_raw_t and min_pair_decay from one read of the
  // cross_t row.
  for (int w = 0; w < n_; ++w) {
    const std::size_t sw = static_cast<std::size_t>(w);
    double* out_cross = cross + sw * n;
    double* out_aff = aff_raw_.data() + sw * n;
    const int s_w = snd[sw];
    const double pw = power_[sw];
    for (int v = 0; v < n_; ++v) {
      const std::size_t sv = static_cast<std::size_t>(v);
      const double cross_wv = decay(s_w, rcv[sv]);
      out_cross[sv] = cross_wv;
      if (v == w || !can_overcome_[sv]) {
        out_aff[sv] = 0.0;
      } else if (uniform_power_) {
        out_aff[sv] = noise_factor_[sv] * (link_decay_[sv] / cross_wv);
      } else {
        out_aff[sv] =
            noise_factor_[sv] * (pw / power_[sv] * link_decay_[sv] / cross_wv);
      }
    }
  }
  transpose_cross();
  for (int v = 0; v < n_; ++v) {
    const std::size_t sv = static_cast<std::size_t>(v);
    double* out_t = aff_raw_t_.data() + sv * n;
    double* out_min = min_pair_decay_.data() + sv * n;
    const double* cross_row_v = cross + sv * n;  // f(s_v, r_w) over w
    const double* cross_v = cross_t + sv * n;    // f(s_w, r_v) over w
    const bool overcomes = can_overcome_[sv] != 0;
    const double cv = noise_factor_[sv];
    const double fvv = link_decay_[sv];
    const double pv = power_[sv];
    for (int w = 0; w < n_; ++w) {
      const std::size_t sw = static_cast<std::size_t>(w);
      if (w == v) {
        out_t[sw] = 0.0;
        out_min[sw] = 0.0;
        continue;
      }
      const double sw_rv = cross_v[sw];  // f(s_w, r_v)
      if (!overcomes) {
        out_t[sw] = 0.0;
      } else if (uniform_power_) {
        out_t[sw] = cv * (fvv / sw_rv);
      } else {
        out_t[sw] = cv * (power_[sw] / pv * fvv / sw_rv);
      }
      const double sv_rw = cross_row_v[sw];  // f(s_v, r_w)
      out_min[sw] = std::min(std::min(sv_rw, sw_rv), endpoint_legs(sv, sw));
    }
  }
}

// --- KernelArena -------------------------------------------------------------

const KernelCache& KernelArena::Rebuild(const LinkSystem& system,
                                        PowerAssignment power,
                                        KernelBuildPath path) {
  // Warm iff the slot already holds matrices of this link count: every
  // resize inside Build is then a no-op and no allocation happens.
  const bool warm =
      slot_.system_ != nullptr && slot_.n_ == system.NumLinks();
  slot_.Build(system, std::move(power), scratch_, path);
  ++rebuilds_;
  if (warm) ++warm_skips_;
  ArenaRebuildCounter().Add();
  if (warm) ArenaWarmSkipCounter().Add();
  return slot_;
}

double KernelCache::InAffectance(std::span<const int> S, int v) const {
  double total = 0.0;
  for (int w : S) total += Affectance(w, v);
  return total;
}

double KernelCache::OutAffectance(int v, std::span<const int> S) const {
  double total = 0.0;
  for (int w : S) total += Affectance(v, w);
  return total;
}

bool KernelCache::IsFeasible(std::span<const int> S) const {
  return IsKFeasible(S, 1.0);
}

bool KernelCache::IsKFeasible(std::span<const int> S, double K) const {
  const double budget = 1.0 / K;
  for (int v : S) {
    if (!CanOvercomeNoise(v)) return false;
    const double* row = aff_raw_t_.data() + Idx(v, 0, n_);
    double total = 0.0;
    for (int w : S) total += row[static_cast<std::size_t>(w)];
    if (total > budget) return false;
  }
  return true;
}

double KernelCache::Sinr(int v, std::span<const int> S) const {
  // Same expression and summation order as LinkSystem::Sinr, with the decay
  // lookups served from the cached matrices.
  const double signal =
      power_[static_cast<std::size_t>(v)] / LinkDecay(v);
  double interference = system_->config().noise;
  for (int u : S) {
    if (u == v) continue;
    interference += power_[static_cast<std::size_t>(u)] / CrossDecay(u, v);
  }
  if (interference == 0.0) return std::numeric_limits<double>::infinity();
  return signal / interference;
}

double KernelCache::MaxInAffectance(std::span<const int> S) const {
  double worst = 0.0;
  for (int v : S) worst = std::max(worst, InAffectance(S, v));
  return worst;
}

double KernelCache::LinkLength(int v, double zeta) const {
  return std::pow(LinkDecay(v), 1.0 / zeta);
}

double KernelCache::LinkDistance(int v, int w, double zeta) const {
  // pow is weakly monotone, so pow(min f, s) == min pow(f, s): one pow per
  // pair reproduces the naive min over four quasi-distances bit-for-bit.
  return std::pow(MinPairDecay(v, w), 1.0 / zeta);
}

bool KernelCache::IsSeparatedFrom(int v, std::span<const int> L, double eta,
                                  double zeta) const {
  const double needed = eta * LinkLength(v, zeta);
  const double inv_zeta = 1.0 / zeta;
  for (int w : L) {
    if (w == v) continue;
    if (std::pow(MinPairDecay(v, w), inv_zeta) < needed) return false;
  }
  return true;
}

// --- AffectanceAccumulator -------------------------------------------------

AffectanceAccumulator::AffectanceAccumulator(const KernelCache& kernel)
    : kernel_(&kernel) {
  const std::size_t n = static_cast<std::size_t>(kernel.NumLinks());
  in_set_.assign(n, 0);
  in_.assign(n, 0.0);
  out_.assign(n, 0.0);
  in_raw_.assign(n, 0.0);
  out_raw_.assign(n, 0.0);
}

void AffectanceAccumulator::Add(int v) {
  DL_CHECK(!Contains(v), "link already in the accumulator");
  const int n = kernel_->NumLinks();
  // Row v of the matrix is a_v(.), row v of the transpose is a_.(v).
  const double* from_v = kernel_->aff_raw_.data() + Idx(v, 0, n);
  const double* into_v = kernel_->aff_raw_t_.data() + Idx(v, 0, n);
  for (int u = 0; u < n; ++u) {
    const std::size_t su = static_cast<std::size_t>(u);
    const double av_u = from_v[su];  // a_v(u): v's pressure on u
    const double au_v = into_v[su];  // a_u(v): u's pressure on v
    in_raw_[su] += av_u;
    in_[su] += av_u < 1.0 ? av_u : 1.0;
    out_raw_[su] += au_v;
    out_[su] += au_v < 1.0 ? au_v : 1.0;
  }
  members_.push_back(v);
  in_set_[static_cast<std::size_t>(v)] = 1;
}

void AffectanceAccumulator::Remove(int v) {
  DL_CHECK(Contains(v), "link not in the accumulator");
  const int n = kernel_->NumLinks();
  const double* from_v = kernel_->aff_raw_.data() + Idx(v, 0, n);
  const double* into_v = kernel_->aff_raw_t_.data() + Idx(v, 0, n);
  for (int u = 0; u < n; ++u) {
    const std::size_t su = static_cast<std::size_t>(u);
    const double av_u = from_v[su];
    const double au_v = into_v[su];
    in_raw_[su] -= av_u;
    in_[su] -= av_u < 1.0 ? av_u : 1.0;
    out_raw_[su] -= au_v;
    out_[su] -= au_v < 1.0 ? au_v : 1.0;
  }
  members_.erase(std::find(members_.begin(), members_.end(), v));
  in_set_[static_cast<std::size_t>(v)] = 0;
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
  std::fill(out_.begin(), out_.end(), 0.0);
  std::fill(in_raw_.begin(), in_raw_.end(), 0.0);
  std::fill(out_raw_.begin(), out_raw_.end(), 0.0);
  members_.clear();
}

// --- SeparationOracle --------------------------------------------------------

SeparationOracle::SeparationOracle(const KernelCache& kernel, double eta,
                                   double zeta)
    : kernel_(&kernel),
      eta_(eta),
      inv_zeta_(1.0 / zeta),
      eta_pow_(std::pow(eta, zeta)) {
  DL_CHECK(eta > 0.0 && zeta > 0.0, "eta and zeta must be positive");
}

// Decides min_pair^{1/zeta} >= needed where needed = eta * scale^{1/zeta}
// for scale = scale_decay, comparing in the decay domain when the values are
// clearly on one side of the threshold and replicating the naive pow
// expression inside the guard band.
bool SeparationOracle::Decide(double min_pair, double scale_decay) const {
  const double thr = eta_pow_ * scale_decay;
  if (min_pair > thr * (1.0 + kBand)) return true;
  if (min_pair < thr * (1.0 - kBand)) return false;
  return std::pow(min_pair, inv_zeta_) >=
         eta_ * std::pow(scale_decay, inv_zeta_);
}

bool SeparationOracle::IsSeparated(int v, int w) const {
  return Decide(kernel_->MinPairDecay(v, w), kernel_->LinkDecay(v));
}

bool SeparationOracle::IsSeparatedFrom(int v, std::span<const int> L) const {
  const double fvv = kernel_->LinkDecay(v);
  const double thr_lo = eta_pow_ * fvv * (1.0 - kBand);
  const double thr_hi = eta_pow_ * fvv * (1.0 + kBand);
  for (int w : L) {
    if (w == v) continue;
    const double m = kernel_->MinPairDecay(v, w);
    if (m > thr_hi) continue;          // clearly separated
    if (m < thr_lo) return false;      // clearly too close
    if (std::pow(m, inv_zeta_) < eta_ * std::pow(fvv, inv_zeta_)) return false;
  }
  return true;
}

bool SeparationOracle::ConflictMaxLength(int v, int w) const {
  const double m = kernel_->MinPairDecay(v, w);
  const double scale = std::max(kernel_->LinkDecay(v), kernel_->LinkDecay(w));
  const double thr = eta_pow_ * scale;
  if (m > thr * (1.0 + kBand)) return false;
  if (m < thr * (1.0 - kBand)) return true;
  // Knife edge: exactly the naive expression (max of pows == pow of max).
  const double needed = eta_ * std::pow(scale, inv_zeta_);
  return std::pow(m, inv_zeta_) < needed;
}

long long KernelCache::MemoryBytes() const noexcept {
  const std::size_t doubles = aff_raw_.capacity() + aff_raw_t_.capacity() +
                              min_pair_decay_.capacity() +
                              cross_decay_.capacity() + link_decay_.capacity() +
                              noise_factor_.capacity();
  return static_cast<long long>(doubles * sizeof(double) +
                                can_overcome_.capacity() * sizeof(char));
}

}  // namespace decaylib::sinr
