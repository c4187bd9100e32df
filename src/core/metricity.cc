#include "core/metricity.h"

// decay-lint: allowlist-file(naked-thread) -- fork-join parallel metricity
// predates BatchRunner and joins every worker before returning; the split is
// a pure index partition, so results are bitwise independent of scheduling.
// Tracked for migration onto the shared pool (ROADMAP serving-mode item).

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "core/check.h"

namespace decaylib::core {

namespace {

// Number of worker threads for an n-sized outer loop: never more threads
// than rows, and only one for small inputs where spawn overhead dominates.
int WorkerCount(int n) {
  const unsigned hc = std::thread::hardware_concurrency();
  int workers = static_cast<int>(hc == 0 ? 1 : hc);
  workers = std::min(workers, n);
  if (n < 64) workers = 1;
  return std::max(1, workers);
}

// Splits [0, n) into `workers` contiguous chunks and runs fn(chunk_index,
// begin, end) on each, inline when there is a single worker.
template <typename Fn>
void ParallelChunks(int n, int workers, Fn fn) {
  if (workers <= 1) {
    fn(0, 0, n);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  const int per = (n + workers - 1) / workers;
  for (int t = 0; t < workers; ++t) {
    const int begin = t * per;
    const int end = std::min(n, begin + per);
    if (begin >= end) break;
    threads.emplace_back([=] { fn(t, begin, end); });
  }
  for (auto& thread : threads) thread.join();
}

// The space's row-major matrix.  A coordinate-backed space is materialised
// into `copy` first: O(n^2) against the O(n^3) scans that read it.
const double* DenseEntries(const DecaySpace& space,
                           std::optional<DecaySpace>& copy) {
  if (!space.IsCoordinateBacked()) return space.Raw().data();
  return copy.emplace(space.Materialized()).Raw().data();
}

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

  const int workers = WorkerCount(n);
  std::vector<MetricityResult> partial(static_cast<std::size_t>(workers));

  // Each chunk prunes only against its own incumbent.  Sharing the best
  // across threads would prune more, but on bitwise-tied extrema in
  // different chunks the race would decide which witness survives; the
  // chunk-local scan is deterministic and the merge below provably returns
  // the naive (lexicographically first) witness.
  ParallelChunks(n, workers, [&](int chunk, int begin, int end) {
    MetricityResult local;
    for (int x = begin; x < end; ++x) {
      const double* row_x = f + static_cast<std::size_t>(x) * sn;
      for (int y = 0; y < n; ++y) {
        if (y == x) continue;
        const double a = row_x[y];
        for (int z = 0; z < n; ++z) {
          if (z == x || z == y) continue;
          const double b = row_x[z];
          if (a <= b) continue;
          const double c = f[static_cast<std::size_t>(z) * sn +
                             static_cast<std::size_t>(y)];
          if (a <= c) continue;
          // Prune: h is strictly decreasing, so this triplet can only beat
          // the incumbent if h(slack / incumbent) < 0.  Two pows replace
          // the full bisection for almost every triple once the incumbent
          // warms.
          if (local.zeta > 0.0) {
            const double s = slack / local.zeta;
            if (std::pow(b / a, s) + std::pow(c / a, s) - 1.0 >= 0.0) continue;
          }
          const double zeta = TripletZeta(a, b, c, tol);
          if (zeta > local.zeta) {
            local.zeta = zeta;
            local.arg_x = x;
            local.arg_y = y;
            local.arg_z = z;
          }
        }
      }
    }
    partial[static_cast<std::size_t>(chunk)] = local;
  });

  // Deterministic merge: chunks cover increasing x ranges, within a chunk
  // the scan runs in the naive lexicographic order with the naive update
  // rule, and ties across chunks resolve to the earlier chunk -- so the
  // first strictly-greater zeta reproduces the naive argmax exactly.
  MetricityResult result;
  for (const MetricityResult& p : partial) {
    if (p.zeta > result.zeta) result = p;
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

  const int workers = WorkerCount(n);
  std::vector<PhiResult> partial(static_cast<std::size_t>(workers));

  // Chunk-local incumbents and two prunes.  The block prune above skips
  // entire (x,z) pairs whose exact upper bound cannot beat the incumbent.
  // Inside surviving blocks, a guard-banded multiplication prune drops
  // candidates clearly below the incumbent (by more than 1e-9 relative,
  // which dwarfs the few-ulp disagreement between `fxz <= g * denom` and
  // `fxz / denom <= g`); everything near or above it is decided by the
  // naive division comparison, so the update sequence -- value and
  // witness -- matches ComputePhiNaive's exactly.
  ParallelChunks(n, workers, [&](int chunk, int begin, int end) {
    PhiResult local;
    for (int x = begin; x < end; ++x) {
      const double* row_x = f + static_cast<std::size_t>(x) * sn;
      for (int z = 0; z < n; ++z) {
        if (z == x) continue;
        const double fxz = row_x[z];
        if (fxz / (row_min[static_cast<std::size_t>(x)] +
                   col_min[static_cast<std::size_t>(z)]) <=
            local.phi_factor) {
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
        if (fxz / dmin <= local.phi_factor) continue;
        // Stale after an in-loop update, i.e. merely prunes less until the
        // next z iteration; the update test below always uses the live value.
        const double guard = local.phi_factor * (1.0 - 1e-9);
        for (int y = 0; y < n; ++y) {
          if (y == x || y == z) continue;
          const double denom = row_x[y] + col_z[y];
          if (fxz <= guard * denom) continue;
          const double factor = fxz / denom;
          if (factor > local.phi_factor) {
            local.phi_factor = factor;
            local.arg_x = x;
            local.arg_y = y;
            local.arg_z = z;
          }
        }
      }
    }
    partial[static_cast<std::size_t>(chunk)] = local;
  });

  // Same deterministic merge as ComputeMetricity: first strictly-greater
  // wins, reproducing the naive lexicographic argmax.
  PhiResult result;
  for (const PhiResult& p : partial) {
    if (p.phi_factor > result.phi_factor) {
      result.phi_factor = p.phi_factor;
      result.arg_x = p.arg_x;
      result.arg_y = p.arg_y;
      result.arg_z = p.arg_z;
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
