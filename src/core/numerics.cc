#include "core/numerics.h"

#include <cmath>

#include "core/check.h"

namespace decaylib::core {

double RiemannZeta(double x) {
  DL_CHECK(x > 1.0, "Riemann zeta series converges only for x > 1");
  constexpr int kTerms = 64;
  double sum = 0.0;
  for (int n = 1; n < kTerms; ++n) {
    sum += std::pow(static_cast<double>(n), -x);
  }
  // Euler-Maclaurin tail sum_{n>=N} n^-x for N = kTerms:
  //   integral_N^inf t^-x dt + 0.5 N^-x + (x/12) N^-(x+1) - ...
  const auto N = static_cast<double>(kTerms);
  sum += std::pow(N, 1.0 - x) / (x - 1.0);
  sum += 0.5 * std::pow(N, -x);
  sum += x / 12.0 * std::pow(N, -x - 1.0);
  sum -= x * (x + 1.0) * (x + 2.0) / 720.0 * std::pow(N, -x - 3.0);
  return sum;
}

}  // namespace decaylib::core
