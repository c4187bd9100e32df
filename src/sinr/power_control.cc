#include "sinr/power_control.h"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <utility>
#include <vector>

#include "core/check.h"

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

// Two doubles, one row each: a GCC/Clang vector type whose + and * are the
// element-wise IEEE operations the scalar loop would issue.  Loads and
// stores go through memcpy, so no alignment is assumed.
using RowPair = double __attribute__((vector_size(16)));

RowPair Load(const double* x) {
  RowPair v;
  std::memcpy(&v, x, sizeof v);
  return v;
}

void Store(double* x, RowPair v) { std::memcpy(x, &v, sizeof v); }

// One sweep's folds, two lanes each: max(next) and, for the linear
// iteration, max(next + p), both std::max folds from +0.
struct SweepFolds {
  RowPair next = {0.0, 0.0};
  RowPair shifted = {0.0, 0.0};
};

// m = std::max(m, v) lane by lane.
void FoldInto(RowPair& m, RowPair v) { m = m < v ? v : m; }

// next[r] = c[r] + B[r][0] p[0] + ... + B[r][k-1] p[k-1] for the 2 * V
// panel rows r starting at row i: V accumulators of two rows each, all fed
// by one broadcast of p[j] per column.  Each lane is one row's serial
// chain, in j order, so the sum does not depend on V.  The store folds
// next[r] into folds.next and, when shifting, stores and folds next[r] +
// p[r] instead (into folds.shifted); the padding row folds as +0, which
// moves no fold that starts at +0.
template <int V>
void SumRowBlock(const GainPanel& panel, std::size_t i, const double* p,
                 bool shift, double* next, SweepFolds& folds) {
  const std::size_t k = panel.size();
  const std::size_t stride = panel.stride();
  const double* b = panel.data() + i;
  const double* c = panel.constant() + i;
  RowPair acc[V];
  for (int l = 0; l < V; ++l) acc[l] = Load(c + 2 * l);
  for (std::size_t j = 0; j < k; ++j) {
    const double* col = b + j * stride;
    const RowPair pj = {p[j], p[j]};
    for (int l = 0; l < V; ++l) acc[l] += Load(col + 2 * l) * pj;
  }
  for (int l = 0; l < V; ++l) {
    const std::size_t r = i + static_cast<std::size_t>(2 * l);
    const bool padded = r + 1 == k;  // lane 1 is row k, the padding row
    RowPair v = acc[l];
    FoldInto(folds.next, padded ? RowPair{v[0], 0.0} : v);
    if (shift) {
      v += Load(p + r);
      FoldInto(folds.shifted, padded ? RowPair{v[0], 0.0} : v);
    }
    Store(next + r, v);
  }
}

// next = c + B p (+ p when shifting) over the panel's rows, 16 at a time
// and then 8/4/2, so every row of the even row count is summed once, and
// the folds of the k live rows.  For odd k the last pair holds the padding
// row, whose next entry is never read.
SweepFolds SumPanel(const GainPanel& panel, const double* p, bool shift,
                    double* next) {
  const std::size_t k = panel.size();
  const std::size_t rows = k + (k & 1);
  SweepFolds folds;
  std::size_t i = 0;
  for (; i + 16 <= rows; i += 16) {
    SumRowBlock<8>(panel, i, p, shift, next, folds);
  }
  if (i + 8 <= rows) {
    SumRowBlock<4>(panel, i, p, shift, next, folds);
    i += 8;
  }
  if (i + 4 <= rows) {
    SumRowBlock<2>(panel, i, p, shift, next, folds);
    i += 4;
  }
  if (i + 2 <= rows) SumRowBlock<1>(panel, i, p, shift, next, folds);
  return folds;
}

// The fold m = init; m = std::max(m, x[i]) for i < n, two lanes at a time.
// std::max replaces m only by a value that compares greater, so the fold is
// init if init is NaN, and otherwise the largest of init and the x[i] that
// are not NaN, with init kept on ties: the same double for any grouping.
double FoldMax(double init, const double* x, std::size_t n) {
  RowPair m = {init, init};
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) FoldInto(m, Load(x + i));
  double folded = std::max(m[0], m[1]);
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
                              FixedPointWork& work) {
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
    const SweepFolds folds = SumPanel(panel, p.data(), !affine, next.data());
    const double max_next = std::max(folds.next[0], folds.next[1]);
    const double shifted_max = std::max(folds.shifted[0], folds.shifted[1]);
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
    : k_(k), stride_(k + (k & 1)), b_(stride_ * stride_, 0.0),
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
  return FixedPoint(panel, noise, max_iterations, tol, work);
}

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
                    work)
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
