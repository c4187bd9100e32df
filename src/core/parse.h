// Strict parsing of runtime input (CLI flags, spec field bindings): the
// whole text must be a base-10 integer (ParseInt) or a finite decimal number
// (ParseDouble) inside the caller's range, never atoi's silent 0.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace decaylib::core {

// A whole base-10 integer in [min_value, max_value]: no junk, no overflow.
inline bool ParseInt(const char* text, long long min_value,
                     long long max_value, long long* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  if (value < min_value || value > max_value) return false;
  *out = value;
  return true;
}

// A decimal double in [min_value, max_value]: no junk, no overflow, no NaN
// (the range comparison is written so NaN fails it).  strtod's ERANGE also
// marks a subnormal result, which is a number; only overflow and underflow
// to zero are refused.
inline bool ParseDouble(const char* text, double min_value, double max_value,
                        double* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  if (errno != 0 && !(std::isfinite(value) && value != 0.0)) return false;
  if (!(value >= min_value && value <= max_value)) return false;
  *out = value;
  return true;
}

}  // namespace decaylib::core
