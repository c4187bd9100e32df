#include "core/metricity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "core/check.h"

namespace decaylib::core {

namespace {

// The space's row-major matrix.  A coordinate-backed space is materialised
// into `copy` first: O(n^2) against the O(n^3) scans that read it.
const double* DenseEntries(const DecaySpace& space,
                           std::optional<DecaySpace>& copy) {
  if (!space.IsCoordinateBacked()) return space.Raw().data();
  return copy.emplace(space.Materialized()).Raw().data();
}

// Relative guard of the root-space test: the few ulp of rounding in its
// three pows, sum and product stay far below 1e-12 (see metricity.h).
constexpr double kRootGuard = 1.0 + 1e-12;

// g is rebuilt once the live exponent falls below this fraction of g's.
constexpr double kRebuildRatio = 0.9;

// The root space g = f^s of ComputeMetricity's scan at one exponent s, with
// its row and column minima over off-diagonal entries.
struct RootSpace {
  double s = std::numeric_limits<double>::infinity();
  // Every off-diagonal entry is a finite normal double, whose relative
  // error the guard covers.  A tiny early incumbent makes s huge and g
  // overflow or underflow; the test is then off until the next rebuild.
  bool usable = false;
  std::vector<double> g, row_min, col_min;

  void Build(const double* f, std::size_t n, double exponent) {
    s = exponent;
    usable = true;
    g.assign(n * n, 0.0);
    row_min.assign(n, std::numeric_limits<double>::infinity());
    col_min.assign(n, std::numeric_limits<double>::infinity());
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = 0; y < n; ++y) {
        if (y == x) continue;
        const double v = std::pow(f[x * n + y], s);
        usable = usable && v >= std::numeric_limits<double>::min() &&
                 v <= std::numeric_limits<double>::max();
        g[x * n + y] = v;
        row_min[x] = std::min(row_min[x], v);
        col_min[y] = std::min(col_min[y], v);
      }
    }
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
      // h(s) > 0 and the triple cannot win.  The row minima bound every
      // g_b + g_c of the row at once.
      double ga = std::numeric_limits<double>::infinity();
      if (root.usable) {
        ga = root.g[row + static_cast<std::size_t>(y)] * kRootGuard;
        if (root.row_min[static_cast<std::size_t>(x)] +
                root.col_min[static_cast<std::size_t>(y)] >=
            ga) {
          continue;
        }
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

  // Transpose copy: the inner loop reads f(y, z) for fixed z over all y,
  // which is a stride-n walk on the row-major matrix; ft makes it
  // contiguous.
  std::vector<double> ft(sn * sn);
  for (std::size_t y = 0; y < sn; ++y) {
    for (std::size_t z = 0; z < sn; ++z) {
      ft[z * sn + y] = f[y * sn + z];
    }
  }

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
    double rm = std::numeric_limits<double>::infinity();
    double cm = std::numeric_limits<double>::infinity();
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

  // Two prunes.  The block prune above skips entire (x,z) pairs whose
  // exact upper bound cannot beat the incumbent.  Inside surviving blocks, a guard-banded multiplication prune drops
  // candidates clearly below the incumbent (by more than 1e-9 relative,
  // which dwarfs the few-ulp disagreement between `fxz <= g * denom` and
  // `fxz / denom <= g`); everything near or above it is decided by the
  // naive division comparison, so the update sequence -- value and
  // witness -- matches ComputePhiNaive's exactly.
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
      // Row-min formulation: the exact denominator minimum for this
      // (x,z), as a branch-free min-plus reduction over four independent
      // accumulators (min is exactly associative and the adds are
      // elementwise, so the split changes nothing but the dependency
      // chain, which is what lets the compiler run it 4-wide).  The
      // y == x and y == z entries contribute the value fxz itself (their
      // other leg is the diagonal 0), i.e. a factor of exactly 1 -- they
      // can shrink dmin only when every admissible factor is below 1, so
      // the bound fxz / dmin >= any admissible fl(fxz / denom) still
      // holds exactly (fl(+), fl(/), min are monotone).  Only blocks
      // whose bound beats the incumbent fall through to the
      // witness-exact scalar scan below.
      double d0 = fxz + fxz, d1 = d0, d2 = d0, d3 = d0;
      int y4 = 0;
      for (; y4 + 4 <= n; y4 += 4) {
        const double e0 = row_x[y4] + col_z[y4];
        const double e1 = row_x[y4 + 1] + col_z[y4 + 1];
        const double e2 = row_x[y4 + 2] + col_z[y4 + 2];
        const double e3 = row_x[y4 + 3] + col_z[y4 + 3];
        d0 = e0 < d0 ? e0 : d0;
        d1 = e1 < d1 ? e1 : d1;
        d2 = e2 < d2 ? e2 : d2;
        d3 = e3 < d3 ? e3 : d3;
      }
      for (; y4 < n; ++y4) {
        const double e = row_x[y4] + col_z[y4];
        d0 = e < d0 ? e : d0;
      }
      const double dmin = std::min(std::min(d0, d1), std::min(d2, d3));
      if (fxz / dmin <= result.phi_factor) continue;
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
