// Process-wide metrics registry: named counters, gauges and fixed-bucket
// latency histograms, atomic and thread-safe, near-zero cost when disabled.
//
// The engine stack (kernel builds, geometry cache, batch workers, sweep
// cells) needs an answer to "which stage is hot, per cell, per worker"
// without perturbing the results it measures.  The registry holds one
// instrument per name -- registration takes a mutex once, the returned
// handle is a stable reference whose updates are lock-free atomics -- and
// every mutation first reads a single process-global enable flag
// (obs::Enabled, a relaxed atomic bool), so an instrumented binary that
// never opts in pays one predictable branch per update site.
//
// Inertness contract, carried from every runner in the library: nothing in
// this module reads or influences randomness, iteration order or
// floating-point results.  Metrics on vs off is invisible in every
// deterministic statistic (AggregateSignature / SweepSignature);
// SweepRunnerTest.ObservabilityInertAcrossThreadsAndStageStats asserts it.
//
// Snapshots serialise through io::Json (MetricsJson / Registry::ToJson), so
// a dumped --metrics file round-trips through the same strict parser the
// checkpoint sidecars use.  Count-0 histograms keep +/-inf min/max
// sentinels internally but omit them from JSON (io::Json refuses non-finite
// numbers by design).
#pragma once

#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "io/json.h"

namespace decaylib::obs {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

// Global observability switch.  Default off: every instrument mutation is a
// relaxed load + branch.  CLI tools flip it on for --trace / --metrics.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool on);

// Monotonic event count.  Add is a relaxed fetch_add when enabled.
class Counter {
 public:
  void Add(long long delta = 1) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

// Last-written instantaneous value (thread counts, grid sizes).
class Gauge {
 public:
  void Set(double v) {
    if (!Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// The linear-interpolation quantile rule shared by the histogram estimates
// below and the bench-harness sample statistics (obs/bench_harness.h):
// QuantileRank maps q in [0, 1] to the fractional 0-based order-statistic
// index q * (count - 1), clamped to [0, count - 1]; QuantileFromSorted
// evaluates it exactly over sorted samples by interpolating between the
// two adjacent order statistics.
double QuantileRank(double q, long long count);
double QuantileFromSorted(std::span<const double> sorted, double q);

// Fixed-bucket histogram: ascending finite upper bounds plus an implicit
// +inf overflow bucket.  Observe is wait-free per bucket (relaxed
// fetch_add) with CAS loops only for the double-valued sum/min/max; the
// count is exact under any interleaving, the sum is order-dependent in the
// usual floating-point sense (it never feeds a deterministic result).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  long long count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  // bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<long long> BucketCounts() const;
  // Estimated quantile (q in [0, 1]) from the bucket counts: the
  // QuantileRank order statistic is located in its bucket, interpolated
  // linearly at the midpoint-adjusted fraction (rank - below + 0.5) /
  // bucket_count between the bucket's lower and upper bounds (the overflow
  // bucket's upper bound is the observed max), and clamped to the exact
  // observed [min, max].  0 when the histogram is empty.
  double QuantileEstimate(double q) const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<long long>> buckets_;
  std::atomic<long long> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// The default latency bucket bounds, in milliseconds: half-decade steps
// from 10us to 10s, wide enough for a kernel build and a whole sweep cell.
std::span<const double> DefaultLatencyBoundsMs();

// Name -> instrument map.  Get* registers on first use (mutex) and returns
// a reference that stays valid for the registry's lifetime; instruments are
// never removed.  One name names one instrument kind -- requesting an
// existing name with a different kind is a programmer error (DL_CHECK).
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  // `bounds` applies only on first registration (empty = default latency
  // buckets); later calls return the existing histogram unchanged.
  Histogram& GetHistogram(const std::string& name,
                          std::span<const double> bounds = {});

  // Snapshot of every registered counter's current value, in name order.
  // The bench harness diffs two of these around a phase to attribute a
  // timing shift to a behavioural change (obs/bench_harness.h).
  std::map<std::string, long long> CounterValues() const;

  // Snapshot as a JSON document:
  //   {"counters": {name: n, ...}, "gauges": {name: v, ...},
  //    "histograms": {name: {"count": n, "sum": s, "min": m, "max": M,
  //                          "p50": ..., "p90": ..., "p99": ...,
  //                          "buckets": [{"le": b, "count": c}, ...]}, ...}}
  // Maps iterate in name order, so two snapshots of the same state dump
  // byte-identically.  min/max and the QuantileEstimate percentiles are
  // omitted when count == 0 (inf sentinels).
  io::Json ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace decaylib::obs
