// decay_analyzer: the paper's parameters for any measured decay matrix.
//
//   $ decay_analyzer matrix.csv [--r <sep>] [--exact-gamma]
//   $ some_producer | decay_analyzer -
//
// Reads a square CSV decay matrix (see io/csv.h) and prints the full health
// report: validity, symmetry, spread, metricity zeta with its witness
// triplet, variant phi, fading parameter gamma(r), Assouad-dimension
// estimate and independence dimension (small inputs only).  This is the
// operational entry point the paper implies: measure your deployment, feed
// the matrix here, read off which theory applies.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "core/dimensions.h"
#include "core/fading.h"
#include "core/metricity.h"
#include "io/csv.h"
#include "tool_args.h"

using namespace decaylib;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <matrix.csv | -> [--r <separation>] "
               "[--exact-gamma]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  std::string path = argv[1];
  double r = 0.0;
  bool exact_gamma = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--r") == 0 && i + 1 < argc) {
      // Strict parse (tool_args.h): garbage or a non-positive separation is
      // a usage error, not a silent fall-through to the default r.
      if (!tools::ParseDoubleFlag("--r", argv[++i], 1e-300, 1e300, &r)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--exact-gamma") == 0) {
      exact_gamma = true;
    } else {
      return Usage(argv[0]);
    }
  }

  io::ParseResult parsed = path == "-" ? io::ReadDecayCsv(std::cin)
                                       : io::ReadDecayCsvFile(path);
  if (!parsed.space.has_value()) {
    std::fprintf(stderr, "error: %s\n", parsed.error.c_str());
    return 1;
  }
  const core::DecaySpace& space = *parsed.space;
  if (space.size() < 2) {
    // Every parameter below is defined over pairs of distinct nodes.
    std::fprintf(stderr, "error: need at least two nodes, got %d\n",
                 space.size());
    return 1;
  }

  std::printf("decay space report (%d nodes)\n", space.size());
  const auto problem = space.Validate();
  std::printf("  valid:            %s\n",
              problem ? problem->c_str() : "yes");
  std::printf("  symmetric:        %s\n",
              space.IsSymmetric(1e-9) ? "yes" : "no");
  std::printf("  decay range:      [%.4g, %.4g]  (spread %.4g)\n",
              space.MinDecay(), space.MaxDecay(), space.DecaySpread());

  const core::MetricityResult zeta = core::ComputeMetricity(space);
  std::printf("  metricity zeta:   %.4f", zeta.zeta);
  if (zeta.arg_x >= 0) {
    std::printf("   (witness triplet x=%d y=%d z=%d)", zeta.arg_x, zeta.arg_y,
                zeta.arg_z);
  }
  std::printf("\n  zeta upper bound: %.4f  (lg of spread)\n",
              core::MetricityUpperBound(space));
  const core::PhiResult phi = core::ComputePhi(space);
  std::printf("  variant phi:      %.4f  (factor %.4g)\n", phi.phi,
              phi.phi_factor);

  if (r <= 0.0) {
    // Default separation: geometric mean of the decay range.
    r = std::sqrt(space.MinDecay() * space.MaxDecay());
  }
  const double gamma = core::FadingParameter(space, r, exact_gamma);
  std::printf("  gamma(r=%.4g):    %.4f  (%s)\n", r, gamma,
              exact_gamma ? "exact" : "greedy estimate");

  const std::vector<double> qs{4.0, 8.0, 16.0, 32.0};
  const core::AssouadEstimate assouad =
      core::EstimateAssouadDimension(space, qs);
  std::printf("  Assouad estimate: A ~ %.3f (C ~ %.2f)  -> %s\n",
              assouad.dimension, assouad.constant,
              assouad.dimension < 1.0 ? "fading space (Thm. 2 applies)"
                                      : "NOT a fading space");
  if (space.size() <= 32) {
    std::printf("  independence dim: %d\n",
                core::IndependenceDimension(space));
  } else {
    std::printf("  independence dim: skipped (n > 32)\n");
  }
  return 0;
}
