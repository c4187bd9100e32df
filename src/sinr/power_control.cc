#include "sinr/power_control.h"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
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

// next[i] = c[i] + B[i][0] p[0] + B[i][1] p[1] + ... + B[i][k-1] p[k-1],
// summed left to right for every row.  Rows go four at a time, each with
// its own accumulator, so one pass over p feeds four independent add chains
// instead of one serial chain; the remainder goes one row at a time.  Every
// row's chain is the same sequence of operations either way, so next[i]
// does not depend on the blocking.
void SumRows(const double* B, const double* c, const double* p,
             std::size_t k, double* next) {
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const double* r0 = B + i * k;
    const double* r1 = r0 + k;
    const double* r2 = r1 + k;
    const double* r3 = r2 + k;
    double a0 = c[i];
    double a1 = c[i + 1];
    double a2 = c[i + 2];
    double a3 = c[i + 3];
    for (std::size_t j = 0; j < k; ++j) {
      const double pj = p[j];
      a0 += r0[j] * pj;
      a1 += r1[j] * pj;
      a2 += r2[j] * pj;
      a3 += r3[j] * pj;
    }
    next[i] = a0;
    next[i + 1] = a1;
    next[i + 2] = a2;
    next[i + 3] = a3;
  }
  for (; i < k; ++i) {
    const double* row = B + i * k;
    double acc = c[i];
    for (std::size_t j = 0; j < k; ++j) acc += row[j] * p[j];
    next[i] = acc;
  }
}

}  // namespace

PowerControlResult RunFixedPoint(std::span<const double> B,
                                 std::span<const double> c, double noise,
                                 int max_iterations, double tol) {
  CheckIterationBudget(max_iterations, tol);
  PowerControlResult result;
  const std::size_t k = c.size();
  DL_CHECK(B.size() == k * k, "B must be a row-major k x k matrix");
  std::vector<double> p(k, 1.0);
  std::vector<double> next(k, 0.0);
  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;
    SumRows(B.data(), c.data(), p.data(), k, next.data());
    // The folds visit i in order (std::max folds are order-free anyway).
    double max_next = 0.0;
    for (std::size_t i = 0; i < k; ++i) max_next = std::max(max_next, next[i]);
    if (max_next == 0.0) {
      // No interference and no noise at all: any positive power works.
      result.feasible = true;
      result.power.assign(k, 1.0);
      result.spectral_radius_estimate = 0.0;
      break;
    }
    if (noise > 0.0) {
      // Affine iteration: converges iff rho(B) < 1; detect by stabilisation
      // or blow-up.
      result.spectral_radius_estimate =
          max_next / *std::max_element(p.begin(), p.end());
      double max_rel_change = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        if (p[i] > 0.0) {
          max_rel_change =
              std::max(max_rel_change,
                       std::abs(next[i] - p[i]) / std::max(p[i], 1e-300));
        }
      }
      if (max_rel_change < tol) {
        result.feasible = true;
        result.power = next;
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
      // 1 + rho(B).
      double shifted_max = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        next[i] += p[i];
        shifted_max = std::max(shifted_max, next[i]);
      }
      // max(p) is 1 after normalisation, so shifted_max is the growth rate.
      result.spectral_radius_estimate = shifted_max - 1.0;
      for (std::size_t i = 0; i < k; ++i) next[i] /= shifted_max;
      double drift = 0.0;
      for (std::size_t i = 0; i < k; ++i) drift += std::abs(next[i] - p[i]);
      p.swap(next);
      if (drift < tol && result.iterations > 3) {
        result.feasible = result.spectral_radius_estimate <= 1.0 + 10.0 * tol;
        result.power = p;
        break;
      }
    }
    if (result.iterations == max_iterations) {
      // Did not settle: judge by the last growth rate (for the affine/noise
      // iteration growth ~ 1 means near-convergence; for the shifted linear
      // iteration the estimate is rho(B) itself).
      result.feasible = result.spectral_radius_estimate <= 1.0 + 10.0 * tol;
      result.power = p;
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

template <DecaySource D>
PowerControlResult FeasibleWithPowerControl(const D& source,
                                            std::span<const int> S,
                                            int max_iterations, double tol) {
  RequireCrossDecay(source);
  CheckIterationBudget(max_iterations, tol);
  PowerControlResult result;
  const auto k = S.size();
  if (k == 0) {
    result.feasible = true;
    return result;
  }
  const double beta = source.config().beta;
  const double noise = source.config().noise;

  // Local matrix B[i][j] = beta * G(S[j] -> S[i]) / G(S[i] -> S[i])
  //                      = beta * f_ii / f_ji  (decay form), zero diagonal.
  std::vector<double> B(k * k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    const double fii = source.LinkDecay(S[i]);
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      B[i * k + j] = beta * fii / source.CrossDecay(S[j], S[i]);
    }
  }
  // Constant term: beta * N * f_ii.
  std::vector<double> c(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    c[i] = beta * noise * source.LinkDecay(S[i]);
  }
  return RunFixedPoint(B, c, noise, max_iterations, tol);
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
  const double beta = source.config().beta;
  std::vector<int> S;
  for (const int v : source.OrderByDecay()) {
    const bool obstructed = std::any_of(S.begin(), S.end(), [&](int w) {
      return PairwiseAffectanceProduct(source, v, w) > beta * beta;
    });
    if (obstructed) continue;
    S.push_back(v);
    if (!FeasibleWithPowerControl(source, S, kGreedyPowerControlIterations,
                                  kGreedyPowerControlTol)
             .feasible) {
      S.pop_back();
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
