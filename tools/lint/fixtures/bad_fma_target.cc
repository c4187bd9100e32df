// decay-lint-path: src/sinr/power_control.cc
// expect: fp-contract-target @ 15
// expect: fp-contract-target @ 18
// expect: fp-contract-target @ 21
// expect: fp-contract-target @ 24
// expect: fp-contract-target @ 27
// A target with FMA lets the compiler fuse a*b+c; an explicit fma rounds
// once.  target("avx2") alone, and fma in comments or plain strings, stay
// quiet.
#include <cmath>

namespace decaylib::sinr {

[[gnu::target("avx2")]] double Sum4(double a, double b, double c) { return a * b + c; }
[[gnu::target("avx2,fma")]] double Fused(double a, double b, double c) {
  return a * b + c;
}
__attribute__((target("avx512f"))) double Wide(double a, double b, double c) {
  return a * b + c;
}
[[gnu::target_clones("default", "arch=haswell")]] double Cloned(double a) {
  return a * a + 1.0;
}
double Explicit(double a, double b, double c) { return std::fma(a, b, c); }
const char* kNote = "fma is fine inside a plain string literal";
double Builtin(double a, double b, double c) {
  return __builtin_fma(a, b, c);
}

}  // namespace decaylib::sinr
