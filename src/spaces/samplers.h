// Synthetic decay-space samplers.
//
// These generate the randomised workloads for tests and benches without the
// full floor-plan machinery of env/: geometric spaces with multiplicative
// shadowing noise (the simplest "measured" decay model), log-uniform abstract
// spaces, and spaces with planted metricity.
#pragma once

#include <span>
#include <vector>

#include "core/decay_space.h"
#include "geom/point.h"
#include "geom/rng.h"

namespace decaylib::spaces {

// Geometric decay perturbed by i.i.d. lognormal shadowing:
//   f(p,q) = d(p,q)^alpha * 10^{N(0, sigma_db)/10}.
// When `symmetric`, both directions share one shadowing draw (static channel
// reciprocity); otherwise each direction draws independently.
core::DecaySpace ShadowedGeometric(std::span<const geom::Vec2> points,
                                   double alpha, double sigma_db,
                                   geom::Rng& rng, bool symmetric = true);

// Fully abstract decay space: off-diagonal decays i.i.d. log-uniform in
// [1, spread].  Metricity grows with spread (up to the lg(spread) cap).
core::DecaySpace LogUniformSpace(int n, double spread, geom::Rng& rng,
                                 bool symmetric = true);

// Random planar geometric space, uniform points in a w x h box.
core::DecaySpace RandomGeometric(int n, double w, double h, double alpha,
                                 geom::Rng& rng);

// A k-dimensional hypercube grid metric with m points per side, decay =
// (L2 distance)^alpha; its quasi-metric has doubling dimension ~ k.  Total
// points = m^k; keep m^k small.
core::DecaySpace HyperGridSpace(int m, int k, double alpha);

// Matérn-style hotspot deployment: `hotspots` parent centers uniform in a
// box x box region, n points normal(sigma) around uniformly chosen parents,
// decay = d^alpha times optional lognormal shadowing (sigma_db = 0 disables
// it; see ShadowedGeometric for the noise model).
//
// Metricity: without shadowing this is a planar geometric space, so
// zeta <= alpha, and the dense hotspots make near-collinear triplets (and
// hence zeta ~ alpha) overwhelmingly likely even at small n.  Shadowing
// multiplies ratios by up to 10^{+-k sigma_db/10}, so zeta can exceed alpha
// by ~ lg of that factor; the quasi-metric keeps doubling dimension ~ 2.
core::DecaySpace ClusteredGeometric(int n, int hotspots, double box,
                                    double sigma, double alpha,
                                    double sigma_db, geom::Rng& rng,
                                    bool symmetric = true);

// The corridor's coordinates: n points uniform in a length x width strip
// (width = 0 collapses to a pure line), in node-id order.  CorridorSpace
// samples exactly these, so a caller holding the points (the scenario
// engine) consumes the identical random stream.
std::vector<geom::Vec2> CorridorPoints(int n, double length, double width,
                                       geom::Rng& rng);

// Line/highway corridor deployment: n points uniform in a length x width
// strip with width << length (width = 0 collapses to a pure line), decay =
// d^alpha times optional lognormal shadowing as above.
//
// Metricity: the strip is nearly one-dimensional, so without shadowing
// zeta <= alpha with near-equality witnessed by the abundant almost-evenly
// split collinear triplets (the bound zeta = alpha is exact for a point
// midway between two others); the quasi-metric has doubling dimension ~ 1.
core::DecaySpace CorridorSpace(int n, double length, double width,
                               double alpha, double sigma_db, geom::Rng& rng,
                               bool symmetric = true);

}  // namespace decaylib::spaces
