// Shared helpers for the experiment benches: markdown table printing, common
// instance builders, and wall-clock timing.  The machine-readable --json
// reporting mode lives in obs/bench_harness.h (BENCH schema v2).
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/decay_space.h"
#include "engine/report.h"
#include "geom/rng.h"
#include "sinr/link_system.h"

namespace decaylib::bench {

// M_PI is a POSIX extension, not standard C++; keep a local constant.
inline constexpr double kPi = 3.14159265358979323846;

// Collects the rows of a markdown table and prints it with right-aligned
// cells (engine::PrintMarkdownTable, the layout the engine reports use).
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    DL_CHECK(cells.size() == headers_.size(),
             "table row arity must match the header");
    rows_.push_back(std::move(cells));
  }

  void Print() const { engine::PrintMarkdownTable(headers_, rows_); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

inline std::string FmtSci(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

inline std::string FmtInt(long long v) { return std::to_string(v); }

inline void Banner(const char* id, const char* title, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("Paper claim: %s\n", claim);
  std::printf("================================================================\n");
}

// Monotonic wall clock in milliseconds.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  void Reset() { start_ = std::chrono::steady_clock::now(); }

  double ElapsedMs() const {
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// A random planar link deployment: link i occupies nodes 2i (sender) and
// 2i+1 (receiver), with lengths in [min_len, max_len] and senders uniform in
// a box x box square.
struct PlanarDeployment {
  std::vector<geom::Vec2> points;
  std::vector<sinr::Link> links;

  PlanarDeployment(int link_count, double box, double min_len, double max_len,
                   geom::Rng& rng) {
    points.reserve(2 * static_cast<std::size_t>(link_count));
    links.reserve(static_cast<std::size_t>(link_count));
    for (int i = 0; i < link_count; ++i) {
      const geom::Vec2 s{rng.Uniform(0.0, box), rng.Uniform(0.0, box)};
      const double angle = rng.Uniform(0.0, 2.0 * kPi);
      const double len = rng.Uniform(min_len, max_len);
      points.push_back(s);
      points.push_back(s + geom::Vec2{len, 0.0}.Rotated(angle));
      links.push_back({2 * i, 2 * i + 1});
    }
  }
};

}  // namespace decaylib::bench
