// The power-control fixed point's sweep kernels, one per lane count.  Not
// part of the public API: power_control.cc includes it, and so do the tests
// that run every kernel against the scalar reference loop.  RunFixedPoint
// and the greedy use the widest kernel the CPU supports, chosen once per
// process; nothing selects a kernel from outside.
#pragma once

#include "sinr/power_control.h"

namespace decaylib::sinr::internal {

// How many panel rows one vector instruction sums: two (SSE2 on x86-64,
// the portable kernel) or four (AVX2, x86 only).
enum class SweepLanes { kTwo, kFour };

// True iff this CPU runs the kernel: always for kTwo, with AVX2 for kFour.
bool SweepLanesSupported(SweepLanes lanes);

// RunFixedPoint on the given kernel.  Requires SweepLanesSupported(lanes)
// (DL_CHECK).  Every kernel returns the same result, bit for bit.
PowerControlResult RunFixedPointWithLanes(SweepLanes lanes,
                                          const GainPanel& panel, double noise,
                                          int max_iterations, double tol);

}  // namespace decaylib::sinr::internal
