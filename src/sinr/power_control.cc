#include "sinr/power_control.h"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <utility>
#include <vector>

#include "core/check.h"
#include "sinr/power_control_kernels.h"

// The four-lane sweep is an AVX2 instance, so it exists on x86 only.
#if defined(__x86_64__) || defined(__i386__)
#define DECAYLIB_FOUR_LANE_SWEEP 1
#endif

namespace decaylib::sinr {

namespace {

void CheckIterationBudget(int max_iterations, double tol) {
  DL_CHECK(max_iterations >= 1 && std::isfinite(tol) && tol > 0.0,
           "power control needs max_iterations >= 1 and a finite tol > 0");
}

// The one slab a KernelCache source must have built; a LinkSystem
// evaluates its space.
template <DecaySource D>
void RequireCrossDecay(const D& source) {
  if constexpr (std::same_as<D, KernelCache>) {
    source.Require(KernelSlabs::kCrossDecay);
  }
}

// L doubles, one row each: a GCC/Clang vector type whose + and * are the
// element-wise IEEE operations the scalar loop would issue.  Loads and
// stores go through memcpy, so no alignment is assumed.  The helpers below
// take vectors by reference (a 32-byte vector passed by value to a
// default-target function changes its ABI, -Wpsabi) and are always
// inlined, so the four-lane instance compiles their bodies as AVX2.
template <int L>
struct LaneVector;
template <>
struct LaneVector<2> {
  using type = double __attribute__((vector_size(16)));
};
template <>
struct LaneVector<4> {
  using type = double __attribute__((vector_size(32)));
};
template <int L>
using Lanes = typename LaneVector<L>::type;
using RowPair = Lanes<2>;

template <int L>
[[gnu::always_inline]] inline void Load(Lanes<L>& v, const double* x) {
  std::memcpy(&v, x, sizeof v);
}

template <int L>
[[gnu::always_inline]] inline void Store(double* x, const Lanes<L>& v) {
  std::memcpy(x, &v, sizeof v);
}

// m = std::max(m, v) lane by lane.
template <int L>
[[gnu::always_inline]] inline void FoldInto(Lanes<L>& m, const Lanes<L>& v) {
  m = m < v ? v : m;
}

// std::max over the lanes of m, from lane 0.
template <int L>
[[gnu::always_inline]] inline double LaneMax(const Lanes<L>& m) {
  double folded = m[0];
  for (int e = 1; e < L; ++e) folded = std::max(folded, m[e]);
  return folded;
}

// One sweep's folds, L lanes each: max(next) and, for the linear
// iteration, max(next + p), both std::max folds from +0.
template <int L>
struct SweepFolds {
  Lanes<L> next = {};
  Lanes<L> shifted = {};
};

// The same folds reduced over the lanes.  Every lane folds from +0 and so
// holds +0 or more, and the reduction is again a std::max fold, so the
// result does not depend on L.
struct SweepMax {
  double next = 0.0;
  double shifted = 0.0;
};

// Folds v into m, with the lanes of rows >= k (padding) as +0, which moves
// no fold that starts at +0.  r is the row of lane 0.
template <int L>
[[gnu::always_inline]] inline void FoldLiveRows(Lanes<L>& m, const Lanes<L>& v,
                                                std::size_t r, std::size_t k) {
  if (r + L <= k) {
    FoldInto<L>(m, v);
    return;
  }
  Lanes<L> live = v;
  for (int e = 0; e < L; ++e) {
    if (r + static_cast<std::size_t>(e) >= k) live[e] = 0.0;
  }
  FoldInto<L>(m, live);
}

// next[r] = c[r] + B[r][0] p[0] + ... + B[r][k-1] p[k-1] for the L * V
// panel rows r starting at row i: V accumulators of L rows each, all fed
// by one broadcast of p[j] per column.  Each lane is one row's serial
// chain, in j order, so the sum does not depend on L or V.  The store
// folds next[r] into folds.next and, when shifting, stores and folds
// next[r] + p[r] instead (into folds.shifted); padding rows fold as +0.
template <int L, int V>
[[gnu::always_inline]] inline void SumRowBlock(const GainPanel& panel,
                                               std::size_t i, const double* p,
                                               bool shift, double* next,
                                               SweepFolds<L>& folds) {
  const std::size_t k = panel.size();
  const std::size_t stride = panel.stride();
  const double* b = panel.data() + i;
  const double* c = panel.constant() + i;
  Lanes<L> acc[V];
  for (int l = 0; l < V; ++l) Load<L>(acc[l], c + L * l);
  for (std::size_t j = 0; j < k; ++j) {
    const double* col = b + j * stride;
    const double pj = p[j];
    for (int l = 0; l < V; ++l) {
      Lanes<L> bj;
      Load<L>(bj, col + L * l);
      acc[l] += bj * pj;
    }
  }
  for (int l = 0; l < V; ++l) {
    const std::size_t r = i + static_cast<std::size_t>(L * l);
    Lanes<L>& v = acc[l];
    FoldLiveRows<L>(folds.next, v, r, k);
    if (shift) {
      Lanes<L> pr;
      Load<L>(pr, p + r);
      v += pr;
      FoldLiveRows<L>(folds.shifted, v, r, k);
    }
    Store<L>(next + r, v);
  }
}

// next = c + B p (+ p when shifting) over the panel's rows, 8L at a time
// and then 4L/2L/L, so every row of k rounded up to L is summed once, and
// the folds of the k live rows.  The padding rows' next entries are never
// read.
template <int L>
[[gnu::always_inline]] inline SweepMax SumPanel(const GainPanel& panel,
                                                const double* p, bool shift,
                                                double* next) {
  const std::size_t k = panel.size();
  const std::size_t rows = (k + L - 1) / L * L;
  SweepFolds<L> folds;
  std::size_t i = 0;
  for (; i + 8 * L <= rows; i += 8 * L) {
    SumRowBlock<L, 8>(panel, i, p, shift, next, folds);
  }
  if (i + 4 * L <= rows) {
    SumRowBlock<L, 4>(panel, i, p, shift, next, folds);
    i += 4 * L;
  }
  if (i + 2 * L <= rows) {
    SumRowBlock<L, 2>(panel, i, p, shift, next, folds);
    i += 2 * L;
  }
  if (i + L <= rows) SumRowBlock<L, 1>(panel, i, p, shift, next, folds);
  return {LaneMax<L>(folds.next), LaneMax<L>(folds.shifted)};
}

// The two instances of SumPanel.  The two-lane one is SSE2 on the baseline
// x86-64 build and portable elsewhere.  The four-lane one is compiled for
// "avx2" alone: AVX2 add and multiply are the IEEE operations SSE2 issues,
// while a target with FMA (fma, avx512f, arch=...) would let the compiler
// contract acc + b * p into one rounding and change the sums.
using SweepKernel = SweepMax (*)(const GainPanel&, const double*, bool,
                                 double*);

SweepMax SumPanelTwoLanes(const GainPanel& panel, const double* p, bool shift,
                          double* next) {
  return SumPanel<2>(panel, p, shift, next);
}

#ifdef DECAYLIB_FOUR_LANE_SWEEP
[[gnu::target("avx2")]] SweepMax SumPanelFourLanes(const GainPanel& panel,
                                                   const double* p, bool shift,
                                                   double* next) {
  return SumPanel<4>(panel, p, shift, next);
}
#endif

SweepKernel KernelFor(internal::SweepLanes lanes) {
  DL_CHECK(internal::SweepLanesSupported(lanes),
           "this CPU cannot run the requested sweep kernel");
#ifdef DECAYLIB_FOUR_LANE_SWEEP
  if (lanes == internal::SweepLanes::kFour) return &SumPanelFourLanes;
#endif
  return &SumPanelTwoLanes;
}

// The widest kernel this CPU runs, chosen once per process.
SweepKernel ChosenKernel() {
  static const SweepKernel kernel = KernelFor(
      internal::SweepLanesSupported(internal::SweepLanes::kFour)
          ? internal::SweepLanes::kFour
          : internal::SweepLanes::kTwo);
  return kernel;
}

// The fold m = init; m = std::max(m, x[i]) for i < n, two lanes at a time.
// std::max replaces m only by a value that compares greater, so the fold is
// init if init is NaN, and otherwise the largest of init and the x[i] that
// are not NaN, with init kept on ties: the same double for any grouping.
double FoldMax(double init, const double* x, std::size_t n) {
  RowPair m = {init, init};
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    RowPair v;
    Load<2>(v, x + i);
    FoldInto<2>(m, v);
  }
  double folded = LaneMax<2>(m);
  if (i < n) folded = std::max(folded, x[i]);
  return folded;
}

// The fixed point's power vectors, reused across the calls of one greedy.
struct FixedPointWork {
  std::vector<double> p;
  std::vector<double> next;
};

// True iff |next[i] - p[i]| / p[i] < tol for every i < k with p[i] > 0: the
// fold max_i(change) < tol, stopped at the first change >= tol (a NaN
// change neither raises the fold nor stops it).
bool Settled(const std::vector<double>& p, const std::vector<double>& next,
             std::size_t k, double tol) {
  for (std::size_t i = 0; i < k; ++i) {
    if (p[i] > 0.0 &&
        std::abs(next[i] - p[i]) / std::max(p[i], 1e-300) >= tol) {
      return false;
    }
  }
  return true;
}

// True iff the drift sum_i |next[i] - p[i]|, added in i order, is < tol.
// The partial sums never decrease, so the sum stops at the first partial
// sum >= tol (a NaN term makes the sum NaN, which is not < tol either way).
bool DriftBelow(const std::vector<double>& p, const std::vector<double>& next,
                std::size_t k, double tol) {
  double drift = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    drift += std::abs(next[i] - p[i]);
    if (drift >= tol) return false;
  }
  return drift < tol;
}

PowerControlResult FixedPoint(const GainPanel& panel, double noise,
                              int max_iterations, double tol,
                              FixedPointWork& work, SweepKernel sweep) {
  CheckIterationBudget(max_iterations, tol);
  PowerControlResult result;
  const std::size_t k = panel.size();
  std::vector<double>& p = work.p;
  std::vector<double>& next = work.next;
  p.assign(panel.stride(), 1.0);
  next.resize(panel.stride());
  const bool affine = noise > 0.0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;
    // The linear iteration's shift (next += p, below) is done as the
    // sweep stores next.
    const auto [max_next, shifted_max] =
        sweep(panel, p.data(), !affine, next.data());
    if (max_next == 0.0) {
      // No interference and no noise at all: any positive power works.
      result.feasible = true;
      result.power.assign(k, 1.0);
      result.spectral_radius_estimate = 0.0;
      break;
    }
    if (affine) {
      // Affine iteration: converges iff rho(B) < 1; detect by stabilisation
      // or blow-up.  FoldMax from p[0] is std::max_element's value.
      result.spectral_radius_estimate =
          max_next / FoldMax(p[0], p.data() + 1, k - 1);
      if (Settled(p, next, k, tol)) {
        result.feasible = true;
        result.power.assign(next.begin(), next.begin() + k);
        break;
      }
      if (max_next > 1e30) {
        result.feasible = false;
        break;
      }
      p.swap(next);
    } else {
      // Linear iteration: shifted power iteration on B + I.  The shift makes
      // the matrix aperiodic (plain iteration on B oscillates on 2-cycles,
      // e.g. a pair of links), converging to the Perron vector with growth
      // 1 + rho(B).  max(p) is 1 after normalisation, so shifted_max is the
      // growth rate.
      result.spectral_radius_estimate = shifted_max - 1.0;
      for (std::size_t i = 0; i < k; ++i) next[i] /= shifted_max;
      const bool settled =
          result.iterations > 3 && DriftBelow(p, next, k, tol);
      p.swap(next);
      if (settled) {
        result.feasible = result.spectral_radius_estimate <= 1.0 + 10.0 * tol;
        result.power.assign(p.begin(), p.begin() + k);
        break;
      }
    }
    if (result.iterations == max_iterations) {
      // Did not settle: judge by the last growth rate (for the affine/noise
      // iteration growth ~ 1 means near-convergence; for the shifted linear
      // iteration the estimate is rho(B) itself).
      result.feasible = result.spectral_radius_estimate <= 1.0 + 10.0 * tol;
      result.power.assign(p.begin(), p.begin() + k);
    }
  }
  if (result.feasible && !result.power.empty()) {
    const double top = *std::max_element(result.power.begin(),
                                         result.power.end());
    if (top > 0.0) {
      for (double& x : result.power) x /= top;
    } else {
      result.power.assign(k, 1.0);
    }
  }
  return result;
}

// Writes row and column m of B = beta f_ii / f_ji (m + 1 <= panel.size())
// and c[m] = beta N f_mm for the links S, with link_decay[i] = f(S[i]).
// Every entry is the expression a whole-matrix gather would compute, so a
// bordered panel equals a freshly gathered one.
template <DecaySource D>
void GatherBorder(const D& source, std::span<const int> S,
                  std::span<const double> link_decay, std::size_t m,
                  GainPanel& panel) {
  const double beta = source.config().beta;
  const double fmm = link_decay[m];
  for (std::size_t j = 0; j < m; ++j) {
    panel.B(m, j) = beta * fmm / source.CrossDecay(S[j], S[m]);
    panel.B(j, m) = beta * link_decay[j] / source.CrossDecay(S[m], S[j]);
  }
  panel.c(m) = beta * source.config().noise * fmm;
}

}  // namespace

GainPanel::GainPanel(std::size_t k)
    : k_(k), stride_((k + 3) / 4 * 4), b_(stride_ * stride_, 0.0),
      c_(stride_, 0.0) {}

void GainPanel::Border() {
  if (k_ + 1 > stride_) {
    GainPanel grown(std::max<std::size_t>(16, 2 * stride_));
    for (std::size_t j = 0; j < k_; ++j) {
      std::copy_n(b_.data() + j * stride_, k_,
                  grown.b_.data() + j * grown.stride_);
    }
    std::copy_n(c_.begin(), k_, grown.c_.begin());
    grown.k_ = k_;
    *this = std::move(grown);
  }
  ++k_;
}

void GainPanel::DropBorder() {
  DL_CHECK(k_ > 0, "no border to drop");
  --k_;
  for (std::size_t j = 0; j < k_; ++j) {
    B(k_, j) = 0.0;
    B(j, k_) = 0.0;
  }
  c_[k_] = 0.0;
}

PowerControlResult RunFixedPoint(const GainPanel& panel, double noise,
                                 int max_iterations, double tol) {
  FixedPointWork work;
  return FixedPoint(panel, noise, max_iterations, tol, work, ChosenKernel());
}

namespace internal {

bool SweepLanesSupported(SweepLanes lanes) {
  if (lanes == SweepLanes::kTwo) return true;
#ifdef DECAYLIB_FOUR_LANE_SWEEP
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

PowerControlResult RunFixedPointWithLanes(SweepLanes lanes,
                                          const GainPanel& panel, double noise,
                                          int max_iterations, double tol) {
  FixedPointWork work;
  return FixedPoint(panel, noise, max_iterations, tol, work, KernelFor(lanes));
}

}  // namespace internal

template <DecaySource D>
PowerControlResult FeasibleWithPowerControl(const D& source,
                                            std::span<const int> S,
                                            int max_iterations, double tol) {
  RequireCrossDecay(source);
  CheckIterationBudget(max_iterations, tol);
  const auto k = S.size();
  if (k == 0) {
    PowerControlResult result;
    result.feasible = true;
    return result;
  }
  std::vector<double> link_decay(k);
  for (std::size_t i = 0; i < k; ++i) link_decay[i] = source.LinkDecay(S[i]);
  GainPanel panel(k);
  for (std::size_t m = 0; m < k; ++m) {
    GatherBorder(source, S, link_decay, m, panel);
  }
  return RunFixedPoint(panel, source.config().noise, max_iterations, tol);
}

template <DecaySource D>
double PairwiseAffectanceProduct(const D& source, int v, int w) {
  RequireCrossDecay(source);
  DL_CHECK(v != w, "need two distinct links");
  const double beta = source.config().beta;
  return beta * beta * source.LinkDecay(v) * source.LinkDecay(w) /
         (source.CrossDecay(v, w) * source.CrossDecay(w, v));
}

template <DecaySource D>
bool HasPairwiseObstruction(const D& source, std::span<const int> S) {
  RequireCrossDecay(source);
  const double beta = source.config().beta;
  for (std::size_t i = 0; i < S.size(); ++i) {
    for (std::size_t j = i + 1; j < S.size(); ++j) {
      if (PairwiseAffectanceProduct(source, S[i], S[j]) > beta * beta) {
        return true;
      }
    }
  }
  return false;
}

template <DecaySource D>
std::vector<int> GreedyPowerControlFeasible(const D& source) {
  RequireCrossDecay(source);
  const double beta = source.config().beta;
  std::vector<int> S;
  std::vector<double> link_decay;
  GainPanel panel;
  FixedPointWork work;
  const SweepKernel sweep = ChosenKernel();
  for (const int v : source.OrderByDecay()) {
    const bool obstructed = std::any_of(S.begin(), S.end(), [&](int w) {
      return PairwiseAffectanceProduct(source, v, w) > beta * beta;
    });
    if (obstructed) continue;
    S.push_back(v);
    link_decay.push_back(source.LinkDecay(v));
    panel.Border();
    GatherBorder(source, S, link_decay, S.size() - 1, panel);
    if (!FixedPoint(panel, source.config().noise,
                    kGreedyPowerControlIterations, kGreedyPowerControlTol,
                    work, sweep)
             .feasible) {
      S.pop_back();
      link_decay.pop_back();
      panel.DropBorder();
    }
  }
  return S;
}

// The two decay sources.
template PowerControlResult FeasibleWithPowerControl(const LinkSystem&,
                                                     std::span<const int>, int,
                                                     double);
template PowerControlResult FeasibleWithPowerControl(const KernelCache&,
                                                     std::span<const int>, int,
                                                     double);
template double PairwiseAffectanceProduct(const LinkSystem&, int, int);
template double PairwiseAffectanceProduct(const KernelCache&, int, int);
template bool HasPairwiseObstruction(const LinkSystem&, std::span<const int>);
template bool HasPairwiseObstruction(const KernelCache&, std::span<const int>);
template std::vector<int> GreedyPowerControlFeasible(const LinkSystem&);
template std::vector<int> GreedyPowerControlFeasible(const KernelCache&);

}  // namespace decaylib::sinr
