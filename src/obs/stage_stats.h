// Per-stage wall-time breakdowns carried inside batch and sweep results.
//
// A StageStats is the result-local sibling of the global registry: where
// Registry aggregates over the whole process, a StageStats rides inside one
// ScenarioResult / SweepResult and answers "where did *this* batch's time
// go" -- count / total / min / max milliseconds per named stage (geometry
// build vs reuse, kernel build, each TaskKind, checkpoint writes).  It is
// built by the sequential post-pool reduction from per-instance wall-clock
// fields, so it needs no synchronisation and -- like every *_ms field --
// is explicitly non-deterministic: it never enters AggregateSignature or
// SweepSignature, and populating it cannot perturb any result
// (the observability-inertness contract, gated in tests/sweep_test.cc).
//
// Stage totals are *worker-summed* CPU-side wall time: under a T-thread
// pool they can legitimately exceed the batch's wall clock by up to T; on
// one thread they sum to it (within measurement overhead -- sweep_report
// prints the coverage ratio per cell).
#pragma once

#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace decaylib::obs {

struct StageStats {
  struct Stage {
    std::string name;
    long long count = 0;
    double total_ms = 0.0;
    double min_ms = std::numeric_limits<double>::infinity();
    double max_ms = -std::numeric_limits<double>::infinity();

    double MeanMs() const {
      return count > 0 ? total_ms / static_cast<double>(count) : 0.0;
    }
  };

  std::vector<Stage> stages;  // first-recorded order

  // Adds one observation of `ms` to the named stage, creating it on first
  // use.  Linear scan: breakdowns hold a dozen-odd stages.
  void Record(std::string_view name, double ms);

  // Folds another breakdown in (count/total add, min/max widen).
  void Merge(const StageStats& other);

  const Stage* Find(std::string_view name) const;
  double TotalMs() const;  // sum over all stages
  bool empty() const { return stages.empty(); }
};

}  // namespace decaylib::obs
