// The kernel-tier concept: everything the admission pipelines ask of an
// SINR kernel.
//
// The paper's algorithms need only a decay/affectance oracle, not a
// particular representation of it.  Two tiers provide that oracle:
//   * dense: KernelCache + AffectanceAccumulator, the O(n^2) precomputed
//     matrices (sinr/kernel.h);
//   * far-field: FarFieldKernel + FarFieldAccumulator, certified pooled
//     bounds over the endpoint geometry (sinr/farfield.h).
// Both decide separation pair by pair with the one SeparationTest below.
// Algorithm 1 (capacity/algorithm1.h), the greedy baselines
// (capacity/baselines.h) and scheduling (scheduling/scheduler.h) are each
// written once as a template over KernelTier, so both tiers run the same
// control flow decision for decision; a tier only decides how each
// threshold test is evaluated.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <numeric>
#include <span>
#include <vector>

#include "geom/point.h"

namespace decaylib::sinr {

// A kernel tier K exposes per-link queries and set feasibility (every
// member's raw in-affectance <= 1), plus an associated running-sum
// accumulator K::Accumulator over a growing admitted set:
//   * InWithinOne(v): member v's clamped in-affectance from the members is
//     <= 1 (Algorithm 1's final filter);
//   * CanAddFeasibly(v): members() + {v} is feasible;
//   * BudgetWithinHalf(v): Algorithm 1's Out(v) + In(v) <= 1/2;
//   * IsSeparatedFromMembers(v, eta, zeta): d(l_v, l_w) >= eta * d_vv for
//     every member w.
// Feasibility and every accumulator query are yes/no threshold tests, never
// sums: the pipelines only compare affectance against 1 or 1/2, so a tier
// may stop evaluating as soon as the answer is certain.  The dense tier reads its exact sums;
// the far-field tier stops refining certified bounds once they clear the
// threshold.
template <class K>
concept KernelTier =
    requires(const K& kernel, std::span<const int> S, int v) {
      { kernel.NumLinks() } -> std::convertible_to<int>;
      { kernel.LinkDecay(v) } -> std::convertible_to<double>;
      { kernel.CanOvercomeNoise(v) } -> std::convertible_to<bool>;
      { kernel.IsFeasible(S) } -> std::convertible_to<bool>;
    } &&
    std::constructible_from<typename K::Accumulator, const K&> &&
    requires(typename K::Accumulator& acc, int v, double eta, double zeta) {
      acc.Add(v);
      { acc.Contains(v) } -> std::convertible_to<bool>;
      { acc.members() } -> std::convertible_to<std::span<const int>>;
      { acc.InWithinOne(v) } -> std::convertible_to<bool>;
      { acc.CanAddFeasibly(v) } -> std::convertible_to<bool>;
      { acc.BudgetWithinHalf(v) } -> std::convertible_to<bool>;
      { acc.IsSeparatedFromMembers(v, eta, zeta) } -> std::convertible_to<bool>;
    };

// Every link id of a tier: {0, 1, ..., n-1}.
template <KernelTier K>
std::vector<int> AllLinks(const K& kernel) {
  std::vector<int> ids(static_cast<std::size_t>(kernel.NumLinks()));
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

// `candidates` sorted by non-decreasing link decay f_vv, ties in candidate
// order -- the total order "prec" of Sec. 2.4 that every greedy admission
// loop walks.  Any type with LinkDecay(int) works (both tiers, LinkSystem).
template <class K>
std::vector<int> DecayOrder(const K& kernel, std::span<const int> candidates) {
  std::vector<int> order(candidates.begin(), candidates.end());
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return kernel.LinkDecay(a) < kernel.LinkDecay(b);
  });
  return order;
}

// The per-pair separation verdict of both tiers: d(l_v, l_w) >= eta *
// scale^{1/zeta} for the link quasi-distance d = m^{1/zeta}, m = min{f(s_v,
// r_w), f(s_w, r_v), f(s_v, s_w), f(r_v, r_w)}; the scale is f_vv, or
// max(f_vv, f_ww) for the separation partition's conflict test.  m is
// compared with thr = eta^zeta * scale (equivalent in exact arithmetic),
// and the naive pow expression decides inside a 1e-9 relative band around
// thr, so verdicts match LinkSystem's except for inputs within ~1e-9 of a
// threshold.  From a decay matrix m is the four entries' min (a selection:
// any nesting gives the same double).  From endpoint coordinates (decay
// |p - q|^alpha) the min endpoint NormSq is compared first with d^2 radii
// widened by a doubled band and a guard: above RadiusSqHi() certifies
// m > thr (1 + 1e-9), below RadiusSqLo() m < thr (1 - 1e-9), and only
// between them are the four legs evaluated (geom::GeometricDecay, what a
// geometric space stores), so both forms give the same verdict.
//
// SeparationExponents is the pair-invariant part of the threshold (eta^zeta
// and 1/zeta); a caller testing many pairs at one (eta, zeta) builds it once.
struct SeparationExponents {
  SeparationExponents(double eta_in, double zeta_in)
      : eta(eta_in), eta_pow_zeta(std::pow(eta_in, zeta_in)),
        inv_zeta(1.0 / zeta_in) {}
  double eta;
  double eta_pow_zeta;
  double inv_zeta;
};

class SeparationTest {
 public:
  // alpha > 0 sets up the coordinate form (two pows); with alpha = 0 only
  // the matrix form may be used.
  SeparationTest(double eta, double zeta, double scale, double alpha)
      : SeparationTest(SeparationExponents(eta, zeta), scale, alpha) {}
  SeparationTest(const SeparationExponents& exponents, double scale,
                 double alpha)
      : eta_(exponents.eta), inv_zeta_(exponents.inv_zeta), scale_(scale),
        alpha_(alpha) {
    const double thr = exponents.eta_pow_zeta * scale;
    thr_lo_ = thr * (1.0 - kBand);
    thr_hi_ = thr * (1.0 + kBand);
    if (alpha > 0.0) {
      r2_hi_ =
          std::pow(thr * (1.0 + 2.0 * kBand), 2.0 / alpha) * (1.0 + kGuard);
      r2_lo_ =
          std::pow(thr * (1.0 - 2.0 * kBand), 2.0 / alpha) * (1.0 - kGuard);
    }
  }

  // The verdict from the min endpoint decay m.
  bool Separated(double m) const {
    if (m > thr_hi_) return true;   // clearly separated
    if (m < thr_lo_) return false;  // clearly too close
    return !(std::pow(m, inv_zeta_) < eta_ * std::pow(scale_, inv_zeta_));
  }

  // The verdict from the endpoint positions of l_v and l_w.
  bool Separated(geom::Vec2 s_v, geom::Vec2 r_v, geom::Vec2 s_w,
                 geom::Vec2 r_w) const {
    const double m2 =
        std::min(std::min((s_v - r_w).NormSq(), (s_w - r_v).NormSq()),
                 std::min((s_v - s_w).NormSq(), (r_v - r_w).NormSq()));
    if (m2 > r2_hi_) return true;
    if (m2 < r2_lo_) return false;
    const auto f = [this](geom::Vec2 p, geom::Vec2 q) {
      return geom::GeometricDecay(p, q, alpha_);
    };
    return Separated(std::min(std::min(f(s_v, r_w), f(s_w, r_v)),
                              std::min(f(s_v, s_w), f(r_v, r_w))));
  }

  // The coordinate form's certification radii (squared distances).
  double RadiusSqHi() const noexcept { return r2_hi_; }
  double RadiusSqLo() const noexcept { return r2_lo_; }

 private:
  static constexpr double kBand = 1e-9;   // relative, around thr
  static constexpr double kGuard = 1e-9;  // fp rounding of the radii
  double eta_;
  double inv_zeta_;
  double scale_;
  double alpha_;
  double thr_lo_ = 0.0;
  double thr_hi_ = 0.0;
  double r2_lo_ = 0.0;
  double r2_hi_ = 0.0;
};

}  // namespace decaylib::sinr
