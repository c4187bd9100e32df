#include "core/metricity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "core/check.h"

namespace decaylib::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The space's row-major matrix.  A coordinate-backed space is materialised
// into `copy` first: O(n^2) against the O(n^3) scans that read it.
const double* DenseEntries(const DecaySpace& space,
                           std::optional<DecaySpace>& copy) {
  if (!space.IsCoordinateBacked()) return space.Raw().data();
  return copy.emplace(space.Materialized()).Raw().data();
}

// Transposed copy of the n x n row-major matrix m, so that the scans read
// columns of m contiguously.
std::vector<double> Transpose(const double* m, std::size_t n) {
  std::vector<double> t(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) t[j * n + i] = m[i * n + j];
  }
  return t;
}

// The exact minimum over k < n of the rounded sums row[k] + col[k].  Four
// independent accumulators change nothing but the dependency chain (min is
// associative, the adds elementwise), which lets the compiler run it 4-wide.
// Forced inline: gcc -O3 keeps it out of line, which slows ComputePhi ~9%.
[[gnu::always_inline]] inline double MinPlus(const double* row,
                                             const double* col, std::size_t n) {
  double d0 = kInf, d1 = kInf, d2 = kInf, d3 = kInf;
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const double e0 = row[k] + col[k];
    const double e1 = row[k + 1] + col[k + 1];
    const double e2 = row[k + 2] + col[k + 2];
    const double e3 = row[k + 3] + col[k + 3];
    d0 = e0 < d0 ? e0 : d0;
    d1 = e1 < d1 ? e1 : d1;
    d2 = e2 < d2 ? e2 : d2;
    d3 = e3 < d3 ? e3 : d3;
  }
  for (; k < n; ++k) {
    const double e = row[k] + col[k];
    d0 = e < d0 ? e : d0;
  }
  return std::min(std::min(d0, d1), std::min(d2, d3));
}

// Whether min_k row[k] + col[k] < bound, i.e. !(MinPlus(row, col, n) >=
// bound): MinPlus over blocks of kMinPlusBlock waypoints, stopping at the
// first block whose minimum is below the bound.  The running minimum only
// falls, so the rest of the row cannot change the answer.
constexpr std::size_t kMinPlusBlock = 64;

inline bool MinPlusBelow(const double* row, const double* col, std::size_t n,
                         double bound) {
  for (std::size_t k = 0; k < n; k += kMinPlusBlock) {
    const std::size_t len = std::min(kMinPlusBlock, n - k);
    if (MinPlus(row + k, col + k, len) < bound) return true;
  }
  return false;
}

// Relative guard of the root-space test: the few ulp of rounding in its
// three pows, sum and product stay far below 1e-12 (see metricity.h).
constexpr double kRootGuard = 1.0 + 1e-12;

// g is rebuilt once the live exponent falls below this fraction of g's.
constexpr double kRebuildRatio = 0.9;

// The root space g = f^s of ComputeMetricity's scan at one exponent s and
// its transpose gt, both +inf on the diagonal: no waypoint z = x or z = y.
struct RootSpace {
  double s = kInf;
  // Every off-diagonal entry is a finite normal double, whose relative
  // error the guard covers.  A tiny early incumbent makes s huge and g
  // overflow or underflow; the test is then off until the next rebuild.
  bool usable = false;
  std::vector<double> g, gt;

  void Build(const double* f, std::size_t n, double exponent) {
    s = exponent;
    usable = true;
    g.assign(n * n, kInf);
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = 0; y < n; ++y) {
        if (y == x) continue;
        const double v = std::pow(f[x * n + y], s);
        usable = usable && v >= std::numeric_limits<double>::min() &&
                 v <= std::numeric_limits<double>::max();
        g[x * n + y] = v;
      }
    }
    gt = Transpose(g.data(), n);
  }
};

}  // namespace

double TripletZeta(double a, double b, double c, double tol) {
  DL_CHECK(a > 0.0 && b > 0.0 && c > 0.0, "triplet decays must be positive");
  if (a <= b || a <= c) return 0.0;  // satisfied for every positive exponent
  // h(s) = (b/a)^s + (c/a)^s - 1, strictly decreasing, h(0) = 1 > 0,
  // h(inf) = -1.  Find the root s*; the triplet requires zeta >= 1/s*.
  const double rb = b / a;
  const double rc = c / a;
  auto h = [&](double s) { return std::pow(rb, s) + std::pow(rc, s) - 1.0; };
  // Bracket the root.
  double lo = 0.0;
  double hi = 1.0;
  while (h(hi) > 0.0) {
    lo = hi;
    hi *= 2.0;
    if (hi > 1e12) return 0.0;  // ratios ~1: constraint is vacuous in practice
  }
  // Bisection to relative tolerance on s.
  while (hi - lo > tol * hi) {
    const double mid = 0.5 * (lo + hi);
    if (h(mid) > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double s_star = 0.5 * (lo + hi);
  return 1.0 / s_star;
}

MetricityResult ComputeMetricity(const DecaySpace& space, double tol) {
  const int n = space.size();
  std::optional<DecaySpace> dense_copy;
  const double* f = DenseEntries(space, dense_copy);
  const std::size_t sn = static_cast<std::size_t>(n);

  // Prune slack: TripletZeta bisects to relative tolerance `tol`, so the
  // value the naive scan records can exceed a triplet's exact root by
  // ~tol (plus pow rounding, covered by the 1e-13 floor).  Pruning against
  // incumbent / (1 + slack) guarantees that every triple whose *recorded*
  // zeta could beat the incumbent is still bisected, keeping the scan's
  // update sequence -- and hence value and witness -- identical to
  // ComputeMetricityNaive's.
  const double slack = 1.0 + 4.0 * tol + 1e-13;

  // The scan runs in the naive lexicographic order with the naive update
  // rule; both prunes below only skip triples that cannot beat the
  // incumbent, so the first strictly-greater zeta is the naive argmax.
  MetricityResult result;
  RootSpace root;
  for (int x = 0; x < n; ++x) {
    const std::size_t row = static_cast<std::size_t>(x) * sn;
    const double* row_x = f + row;
    for (int y = 0; y < n; ++y) {
      if (y == x) continue;
      // The incumbent only grows, so s = slack / incumbent only falls and
      // stays at most root.s between rebuilds.
      if (result.zeta > 0.0 && slack / result.zeta < kRebuildRatio * root.s) {
        root.Build(f, sn, slack / result.zeta);
      }
      const double a = row_x[y];
      // Root-space prune: for b, c < a and s <= root.s, (b/a)^s >=
      // (b/a)^root.s, so g_b + g_c >= g_a (beyond the guard) gives
      // h(s) > 0 and the triple cannot win.  The pair certificate is that
      // same test at the min-plus waypoint, so it skips the pair exactly
      // when the per-triple root test below would skip every z.
      double ga = kInf;
      if (root.usable) {
        ga = root.g[row + static_cast<std::size_t>(y)] * kRootGuard;
        const double* col_y = &root.gt[static_cast<std::size_t>(y) * sn];
        if (!MinPlusBelow(&root.g[row], col_y, sn, ga)) continue;
      }
      for (int z = 0; z < n; ++z) {
        if (z == x || z == y) continue;
        const double b = row_x[z];
        if (a <= b) continue;
        const std::size_t zy = static_cast<std::size_t>(z) * sn +
                               static_cast<std::size_t>(y);
        const double c = f[zy];
        if (a <= c) continue;
        if (root.usable &&
            root.g[row + static_cast<std::size_t>(z)] + root.g[zy] >= ga) {
          continue;
        }
        // The live two-pow test: h is strictly decreasing, so this triplet
        // can only beat the incumbent if h(slack / incumbent) < 0.
        if (result.zeta > 0.0) {
          const double s = slack / result.zeta;
          if (std::pow(b / a, s) + std::pow(c / a, s) - 1.0 >= 0.0) continue;
        }
        const double zeta = TripletZeta(a, b, c, tol);
        if (zeta > result.zeta) {
          result.zeta = zeta;
          result.arg_x = x;
          result.arg_y = y;
          result.arg_z = z;
        }
      }
    }
  }
  return result;
}

MetricityResult ComputeMetricityNaive(const DecaySpace& space, double tol) {
  const int n = space.size();
  MetricityResult result;
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y < n; ++y) {
      if (y == x) continue;
      const double a = space(x, y);
      for (int z = 0; z < n; ++z) {
        if (z == x || z == y) continue;
        const double b = space(x, z);
        const double c = space(z, y);
        if (a <= b || a <= c) continue;
        const double zeta = TripletZeta(a, b, c, tol);
        if (zeta > result.zeta) {
          result.zeta = zeta;
          result.arg_x = x;
          result.arg_y = y;
          result.arg_z = z;
        }
      }
    }
  }
  return result;
}

double Metricity(const DecaySpace& space, double tol) {
  return ComputeMetricity(space, tol).zeta;
}

PhiResult ComputePhi(const DecaySpace& space) {
  const int n = space.size();
  std::optional<DecaySpace> dense_copy;
  const double* f = DenseEntries(space, dense_copy);
  const std::size_t sn = static_cast<std::size_t>(n);

  const std::vector<double> ft = Transpose(f, sn);

  // Row/column minima for the per-(x,z) block prune: for every admissible
  // waypoint y, the computed denominator fl(f(x,y) + f(y,z)) is at least
  // fl(row_min[x] + col_min[z]) -- fl(a+b) and fl(a/b) are monotone, so
  // fl(fxz / denom) <= fl(fxz / (row_min[x] + col_min[z])) holds *exactly*,
  // not just up to rounding.  When that upper bound does not beat the
  // incumbent, the whole inner y loop is skipped: an O(n^2) precomputation
  // that elides O(n^3) work on spaces with any decay spread.  (The minima
  // range over y != x resp. y != z, a superset of the admissible waypoints,
  // which only weakens the bound -- never unsoundly.)
  std::vector<double> row_min(sn), col_min(sn);
  for (std::size_t x = 0; x < sn; ++x) {
    double rm = kInf, cm = kInf;
    const double* row_x = f + x * sn;
    const double* col_x = ft.data() + x * sn;
    for (std::size_t y = 0; y < sn; ++y) {
      if (y == x) continue;
      rm = std::min(rm, row_x[y]);
      cm = std::min(cm, col_x[y]);
    }
    row_min[x] = rm;
    col_min[x] = cm;
  }

  // The block prune above and the exact min-plus bound skip (x,z) pairs
  // that cannot beat the incumbent.  Inside surviving blocks, a guard-banded
  // multiplication prune drops candidates clearly below the incumbent (by
  // more than 1e-9 relative, which dwarfs the few-ulp disagreement between
  // `fxz <= g * denom` and `fxz / denom <= g`); everything near or above it
  // is decided by the naive division comparison, so the update sequence --
  // value and witness -- matches ComputePhiNaive's exactly.
  PhiResult result;
  for (int x = 0; x < n; ++x) {
    const double* row_x = f + static_cast<std::size_t>(x) * sn;
    for (int z = 0; z < n; ++z) {
      if (z == x) continue;
      const double fxz = row_x[z];
      if (fxz / (row_min[static_cast<std::size_t>(x)] +
                 col_min[static_cast<std::size_t>(z)]) <=
          result.phi_factor) {
        continue;
      }
      const double* col_z = ft.data() + static_cast<std::size_t>(z) * sn;
      // fxz / dmin bounds every admissible fl(fxz / denom) exactly, since
      // fl(+), fl(/) and min are monotone.  The y == x and y == z entries
      // add fxz itself (their other leg is the diagonal 0), a factor of 1
      // that shrinks dmin only when every admissible factor is below 1.
      if (fxz / MinPlus(row_x, col_z, sn) <= result.phi_factor) continue;
      // Stale after an in-loop update, i.e. merely prunes less until the
      // next z iteration; the update test below always uses the live value.
      const double guard = result.phi_factor * (1.0 - 1e-9);
      for (int y = 0; y < n; ++y) {
        if (y == x || y == z) continue;
        const double denom = row_x[y] + col_z[y];
        if (fxz <= guard * denom) continue;
        const double factor = fxz / denom;
        if (factor > result.phi_factor) {
          result.phi_factor = factor;
          result.arg_x = x;
          result.arg_y = y;
          result.arg_z = z;
        }
      }
    }
  }

  result.phi = result.phi_factor > 0.0 ? std::log2(result.phi_factor) : 0.0;
  return result;
}

PhiResult ComputePhiNaive(const DecaySpace& space) {
  const int n = space.size();
  PhiResult result;
  for (int x = 0; x < n; ++x) {
    for (int z = 0; z < n; ++z) {
      if (z == x) continue;
      const double fxz = space(x, z);
      for (int y = 0; y < n; ++y) {
        if (y == x || y == z) continue;
        const double denom = space(x, y) + space(y, z);
        const double factor = fxz / denom;
        if (factor > result.phi_factor) {
          result.phi_factor = factor;
          result.arg_x = x;
          result.arg_y = y;
          result.arg_z = z;
        }
      }
    }
  }
  result.phi = result.phi_factor > 0.0 ? std::log2(result.phi_factor) : 0.0;
  return result;
}

double MetricityUpperBound(const DecaySpace& space) {
  DL_CHECK(space.size() >= 2, "need at least two nodes");
  return std::log2(space.MaxDecay() / space.MinDecay());
}

}  // namespace decaylib::core
