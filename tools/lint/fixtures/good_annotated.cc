// decay-lint-path: src/engine/cell_timing.cc
// A reviewed exception to a rule is annotated at the offending line; the
// annotation records the decision and its rationale in place.
#include <chrono>
#include <cmath>

double AttemptMs() {
  // decay-lint: allow(clock-read) -- timing surface only, never a signature
  const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             t0.time_since_epoch())
      .count();
}

double MirrorDecay(double d, double a) {
  return std::pow(d, a);  // decay-lint: allow(exactness-pow) -- mirrors space
}
