#include "spaces/samplers.h"

#include <cmath>
#include <vector>

#include "core/check.h"
#include "geom/samplers.h"

namespace decaylib::spaces {

core::DecaySpace ShadowedGeometric(std::span<const geom::Vec2> points,
                                   double alpha, double sigma_db,
                                   geom::Rng& rng, bool symmetric) {
  core::DecaySpace space = core::DecaySpace::Geometric(points, alpha);
  const int n = space.size();
  for (int i = 0; i < n; ++i) {
    for (int j = symmetric ? i + 1 : 0; j < n; ++j) {
      if (i == j) continue;
      const double shadow_db = rng.Normal(0.0, sigma_db);
      const double factor = std::pow(10.0, shadow_db / 10.0);
      if (symmetric) {
        space.SetSymmetric(i, j, space(i, j) * factor);
      } else {
        space.Set(i, j, space(i, j) * factor);
      }
    }
  }
  return space;
}

core::DecaySpace LogUniformSpace(int n, double spread, geom::Rng& rng,
                                 bool symmetric) {
  DL_CHECK(spread >= 1.0, "spread must be at least 1");
  core::DecaySpace space(n);
  const double log_spread = std::log(spread);
  for (int i = 0; i < n; ++i) {
    for (int j = symmetric ? i + 1 : 0; j < n; ++j) {
      if (i == j) continue;
      const double value = std::exp(rng.Uniform() * log_spread);
      if (symmetric) {
        space.SetSymmetric(i, j, value);
      } else {
        space.Set(i, j, value);
      }
    }
  }
  return space;
}

core::DecaySpace RandomGeometric(int n, double w, double h, double alpha,
                                 geom::Rng& rng) {
  const std::vector<geom::Vec2> pts = geom::SampleUniform(n, w, h, rng);
  return core::DecaySpace::Geometric(pts, alpha);
}

core::DecaySpace HyperGridSpace(int m, int k, double alpha) {
  DL_CHECK(m >= 2 && k >= 1, "grid needs m >= 2, k >= 1");
  int total = 1;
  for (int i = 0; i < k; ++i) {
    total *= m;
    DL_CHECK(total <= 4096, "hypergrid too large");
  }
  // Enumerate lattice coordinates in base m.
  std::vector<std::vector<int>> coords(static_cast<std::size_t>(total),
                                       std::vector<int>(static_cast<std::size_t>(k)));
  for (int id = 0; id < total; ++id) {
    int rest = id;
    for (int axis = 0; axis < k; ++axis) {
      coords[static_cast<std::size_t>(id)][static_cast<std::size_t>(axis)] =
          rest % m;
      rest /= m;
    }
  }
  core::DecaySpace space(total);
  for (int i = 0; i < total; ++i) {
    for (int j = i + 1; j < total; ++j) {
      double sq = 0.0;
      for (int axis = 0; axis < k; ++axis) {
        const double diff = static_cast<double>(
            coords[static_cast<std::size_t>(i)][static_cast<std::size_t>(axis)] -
            coords[static_cast<std::size_t>(j)][static_cast<std::size_t>(axis)]);
        sq += diff * diff;
      }
      space.SetSymmetric(i, j, std::pow(std::sqrt(sq), alpha));
    }
  }
  return space;
}

core::DecaySpace ClusteredGeometric(int n, int hotspots, double box,
                                    double sigma, double alpha,
                                    double sigma_db, geom::Rng& rng,
                                    bool symmetric) {
  DL_CHECK(n >= 1 && hotspots >= 1, "need n >= 1 points, >= 1 hotspot");
  const std::vector<geom::Vec2> pts =
      geom::SampleClusters(n, hotspots, box, box, sigma, rng);
  return sigma_db > 0.0
             ? ShadowedGeometric(pts, alpha, sigma_db, rng, symmetric)
             : core::DecaySpace::Geometric(pts, alpha);
}

std::vector<geom::Vec2> CorridorPoints(int n, double length, double width,
                                       geom::Rng& rng) {
  DL_CHECK(n >= 1 && length > 0.0 && width >= 0.0,
           "need n >= 1 points in a positive-length corridor");
  std::vector<geom::Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double lateral = width > 0.0 ? rng.Uniform(0.0, width) : 0.0;
    pts.push_back({rng.Uniform(0.0, length), lateral});
  }
  return pts;
}

core::DecaySpace CorridorSpace(int n, double length, double width,
                               double alpha, double sigma_db, geom::Rng& rng,
                               bool symmetric) {
  const std::vector<geom::Vec2> pts = CorridorPoints(n, length, width, rng);
  return sigma_db > 0.0
             ? ShadowedGeometric(pts, alpha, sigma_db, rng, symmetric)
             : core::DecaySpace::Geometric(pts, alpha);
}

}  // namespace decaylib::spaces
