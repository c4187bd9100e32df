// Per-stage wall-time breakdowns carried inside batch and sweep results.
//
// A StageStats is the result-local sibling of the global registry: where
// Registry aggregates over the whole process, a StageStats rides inside one
// InstanceRecord / ScenarioResult / SweepResult and answers "where did
// *this* run's time go" -- count / total / min / max milliseconds per named
// stage (geometry build vs reuse, kernel build, each TaskKind, checkpoint
// writes).  Every observation is the Finish() value of the obs::Span that
// timed the stage.  A worker fills its own instance's record; the
// sequential post-pool reduction merges the records, so nothing here needs
// synchronisation.  Like every *_ms field it is explicitly
// non-deterministic: it never enters AggregateSignature or SweepSignature,
// and populating it cannot perturb any result (the observability-inertness
// contract, gated in tests/sweep_test.cc).
//
// Stages never overlap: a stage nested inside another (the dense kernel a
// far-field task builds lazily) is charged to the inner stage only.  Stage
// totals are *worker-summed* wall time: under a T-thread pool they can
// legitimately exceed the batch's wall clock by up to T; on one thread they
// sum to at most it (sweep_report prints both per cell).
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
  // Sum of total_ms over the stages whose name starts with `prefix` (all
  // stages by default).
  double TotalMs(std::string_view prefix = {}) const;
  bool empty() const { return stages.empty(); }
};

}  // namespace decaylib::obs
