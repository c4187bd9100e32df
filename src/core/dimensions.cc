#include "core/dimensions.h"

#include <algorithm>
#include <cmath>

#include "core/branch_and_bound.h"
#include "core/check.h"

namespace decaylib::core {

std::vector<int> Ball(const DecaySpace& space, int center, double t) {
  DL_CHECK(center >= 0 && center < space.size(), "center out of range");
  std::vector<int> members;
  for (int x = 0; x < space.size(); ++x) {
    const double fx = x == center ? 0.0 : space(x, center);
    if (fx < t) members.push_back(x);
  }
  return members;
}

bool IsPacking(const DecaySpace& space, std::span<const int> nodes, double t) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (!(space(nodes[i], nodes[j]) > 2.0 * t) ||
          !(space(nodes[j], nodes[i]) > 2.0 * t)) {
        return false;
      }
    }
  }
  return true;
}

int PackingNumberExact(const DecaySpace& space, std::span<const int> body,
                       double t) {
  const auto packs = [&](int i, int j) {
    const int a = body[static_cast<std::size_t>(i)];
    const int b = body[static_cast<std::size_t>(j)];
    return space(a, b) > 2.0 * t && space(b, a) > 2.0 * t;
  };
  return static_cast<int>(
      LargestCompatibleSet(static_cast<int>(body.size()), packs).size());
}

std::vector<int> GreedyPacking(const DecaySpace& space,
                               std::span<const int> body, double t) {
  std::vector<int> chosen;
  for (int candidate : body) {
    bool ok = true;
    for (int existing : chosen) {
      if (!(space(candidate, existing) > 2.0 * t) ||
          !(space(existing, candidate) > 2.0 * t)) {
        ok = false;
        break;
      }
    }
    if (ok) chosen.push_back(candidate);
  }
  return chosen;
}

AssouadEstimate EstimateAssouadDimension(const DecaySpace& space,
                                         std::span<const double> qs,
                                         int exact_limit) {
  const int n = space.size();
  AssouadEstimate est;
  for (double q : qs) {
    DL_CHECK(q > 1.0, "packing ratio q must exceed 1");
    int g_q = 0;  // largest q-packing seen: g(q) = max_{x,r} P(B(x,r), r/q)
    for (int x = 0; x < n; ++x) {
      // Candidate radii: just above each realised decay towards x, so every
      // distinct ball around x occurs.
      std::vector<double> radii;
      radii.reserve(static_cast<std::size_t>(n));
      for (int y = 0; y < n; ++y) {
        if (y != x) radii.push_back(space(y, x) * (1.0 + 1e-12));
      }
      std::sort(radii.begin(), radii.end());
      radii.erase(std::unique(radii.begin(), radii.end()), radii.end());
      for (double r : radii) {
        const std::vector<int> body = Ball(space, x, r);
        if (static_cast<int>(body.size()) <= g_q) continue;  // cannot improve
        const double t = r / q;
        int p = 0;
        if (static_cast<int>(body.size()) <= exact_limit) {
          p = PackingNumberExact(space, body, t);
        } else {
          p = static_cast<int>(GreedyPacking(space, body, t).size());
        }
        g_q = std::max(g_q, p);
      }
    }
    if (g_q <= 0) continue;
    est.qs.push_back(q);
    est.g.push_back(g_q);
    if (g_q > est.worst_packing_size) {
      est.worst_packing_size = g_q;
      est.worst_q = q;
    }
  }
  // Least-squares fit of ln g = A ln q + ln C over the sweep.
  const std::size_t m = est.qs.size();
  if (m == 0) return est;
  if (m == 1) {
    est.dimension = std::log(static_cast<double>(est.g[0])) /
                    std::log(est.qs[0]);
    return est;
  }
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double x = std::log(est.qs[i]);
    const double y = std::log(static_cast<double>(est.g[i]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double md = static_cast<double>(m);
  const double denom = md * sxx - sx * sx;
  est.dimension = denom != 0.0 ? (md * sxy - sx * sy) / denom : 0.0;
  est.constant = std::exp((sy - est.dimension * sx) / md);
  return est;
}

bool IsIndependentWrt(const DecaySpace& space, int x,
                      std::span<const int> I) {
  for (int z : I) {
    DL_CHECK(z != x, "independent set may not contain the anchor point");
    for (int w : I) {
      if (w == z) continue;
      // Strict: a tie already breaks independence (the uniform metric must
      // have independence dimension 1, and the plane 5 -- unit vectors at
      // pairwise angles of *more* than 60 degrees, Sec. 4.1).
      if (space(w, z) <= space(z, x)) return false;
    }
  }
  return true;
}

std::vector<int> MaxIndependentWrt(const DecaySpace& space, int x) {
  const int n = space.size();
  std::vector<int> universe;
  universe.reserve(static_cast<std::size_t>(n) - 1);
  for (int v = 0; v < n; ++v) {
    if (v != x) universe.push_back(v);
  }
  // Pair {z, w} is compatible iff neither is strictly closer to the other
  // than x is: f(w,z) > f(z,x) and f(z,w) > f(w,x).
  const auto independent = [&](int i, int j) {
    const int z = universe[static_cast<std::size_t>(i)];
    const int w = universe[static_cast<std::size_t>(j)];
    return space(w, z) > space(z, x) && space(z, w) > space(w, x);
  };
  std::vector<int> picked = LargestCompatibleSet(
      static_cast<int>(universe.size()), independent);
  for (int& v : picked) v = universe[static_cast<std::size_t>(v)];
  std::sort(picked.begin(), picked.end());
  return picked;
}

int IndependenceDimension(const DecaySpace& space) {
  int best = 0;
  for (int x = 0; x < space.size(); ++x) {
    best = std::max(best,
                    static_cast<int>(MaxIndependentWrt(space, x).size()));
  }
  return best;
}

std::vector<int> GreedyGuards(const DecaySpace& space, int x) {
  const int n = space.size();
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n) - 1);
  for (int v = 0; v < n; ++v) {
    if (v != x) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return space(a, x) < space(b, x);
  });
  std::vector<int> guards;
  for (int z : order) {
    bool guarded = false;
    for (int y : guards) {
      if (space(z, y) <= space(z, x)) {
        guarded = true;
        break;
      }
    }
    if (!guarded) guards.push_back(z);
  }
  return guards;
}

bool GuardsNode(const DecaySpace& space, int x, std::span<const int> J) {
  for (int z = 0; z < space.size(); ++z) {
    if (z == x) continue;
    if (std::find(J.begin(), J.end(), z) != J.end()) continue;
    bool guarded = false;
    for (int y : J) {
      if (space(z, y) <= space(z, x)) {
        guarded = true;
        break;
      }
    }
    if (!guarded) return false;
  }
  return true;
}

}  // namespace decaylib::core
