// Small numeric utilities used by the fading-parameter bounds.
#pragma once

namespace decaylib::core {

// The Riemann zeta function zetahat(x) = sum_{n>=1} n^{-x} for x > 1
// (the paper's annulus argument, Thm. 2, uses zetahat(2 - A)).
// Direct summation of the first terms plus an Euler-Maclaurin tail; relative
// error below 1e-12 for x >= 1.05.
double RiemannZeta(double x);

}  // namespace decaylib::core
