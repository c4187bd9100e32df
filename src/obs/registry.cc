#include "obs/registry.h"

#include <algorithm>
#include <array>

#include "core/check.h"

namespace decaylib::obs {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

namespace {

// Relaxed CAS add for atomic<double>; C++20's fetch_add on floating-point
// atomics is still patchy across standard libraries.
void AtomicAdd(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double v) {
  double expected = target.load(std::memory_order_relaxed);
  while (v < expected && !target.compare_exchange_weak(
                             expected, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double v) {
  double expected = target.load(std::memory_order_relaxed);
  while (v > expected && !target.compare_exchange_weak(
                             expected, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

double QuantileRank(double q, long long count) {
  if (count <= 1) return 0.0;
  const double rank = q * static_cast<double>(count - 1);
  return std::min(std::max(rank, 0.0), static_cast<double>(count - 1));
}

double QuantileFromSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = QuantileRank(q, static_cast<long long>(sorted.size()));
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  DL_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
           "histogram bucket bounds must ascend");
  buckets_ = std::vector<std::atomic<long long>>(bounds_.size() + 1);
}

void Histogram::Observe(double v) {
  if (!Enabled()) return;
  const std::size_t bucket =
      static_cast<std::size_t>(std::upper_bound(bounds_.begin(), bounds_.end(),
                                                v) -
                               bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, v);
  AtomicMin(min_, v);
  AtomicMax(max_, v);
}

std::vector<long long> Histogram::BucketCounts() const {
  std::vector<long long> counts;
  counts.reserve(buckets_.size());
  for (const std::atomic<long long>& b : buckets_) {
    counts.push_back(b.load(std::memory_order_relaxed));
  }
  return counts;
}

double Histogram::QuantileEstimate(double q) const {
  const long long total = count();
  if (total <= 0) return 0.0;
  const double lo_clamp = min();
  const double hi_clamp = max();
  const double rank = QuantileRank(q, total);
  const std::vector<long long> counts = BucketCounts();
  long long below = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    // Samples in bucket i occupy order-statistic indices
    // [below, below + counts[i] - 1].
    if (rank <= static_cast<double>(below + counts[i] - 1) ||
        below + counts[i] >= total) {
      const double lo = i == 0 ? std::min(0.0, lo_clamp) : bounds_[i - 1];
      const double hi = i < bounds_.size() ? bounds_[i] : hi_clamp;
      const double frac = (rank - static_cast<double>(below) + 0.5) /
                          static_cast<double>(counts[i]);
      const double estimate =
          lo + std::min(std::max(frac, 0.0), 1.0) * (hi - lo);
      return std::min(std::max(estimate, lo_clamp), hi_clamp);
    }
    below += counts[i];
  }
  return hi_clamp;  // unreachable: the loop always lands in some bucket
}

void Histogram::Reset() {
  for (std::atomic<long long>& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::span<const double> DefaultLatencyBoundsMs() {
  static constexpr std::array<double, 13> kBounds = {
      0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0,
      5000.0, 10000.0};
  return kBounds;
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // leaked: outlives all users
  return *registry;
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  DL_CHECK(gauges_.find(name) == gauges_.end() &&
               histograms_.find(name) == histograms_.end(),
           "instrument name already registered with a different kind");
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  DL_CHECK(counters_.find(name) == counters_.end() &&
               histograms_.find(name) == histograms_.end(),
           "instrument name already registered with a different kind");
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  std::span<const double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  DL_CHECK(counters_.find(name) == counters_.end() &&
               gauges_.find(name) == gauges_.end(),
           "instrument name already registered with a different kind");
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    if (bounds.empty()) bounds = DefaultLatencyBoundsMs();
    slot = std::make_unique<Histogram>(
        std::vector<double>(bounds.begin(), bounds.end()));
  }
  return *slot;
}

std::map<std::string, long long> Registry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, long long> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

io::Json Registry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  io::Json counters = io::Json::Object();
  for (const auto& [name, counter] : counters_) {
    counters.Set(name, io::Json::Number(
                           static_cast<double>(counter->value())));
  }
  io::Json gauges = io::Json::Object();
  for (const auto& [name, gauge] : gauges_) {
    gauges.Set(name, io::Json::Number(gauge->value()));
  }
  io::Json histograms = io::Json::Object();
  for (const auto& [name, histogram] : histograms_) {
    io::Json h = io::Json::Object();
    const long long count = histogram->count();
    h.Set("count", io::Json::Number(static_cast<double>(count)));
    h.Set("sum", io::Json::Number(histogram->sum()));
    if (count > 0) {  // inf sentinels are not JSON numbers
      h.Set("min", io::Json::Number(histogram->min()));
      h.Set("max", io::Json::Number(histogram->max()));
      h.Set("p50", io::Json::Number(histogram->QuantileEstimate(0.50)));
      h.Set("p90", io::Json::Number(histogram->QuantileEstimate(0.90)));
      h.Set("p99", io::Json::Number(histogram->QuantileEstimate(0.99)));
    }
    io::Json buckets = io::Json::Array();
    const std::vector<long long> counts = histogram->BucketCounts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      io::Json bucket = io::Json::Object();
      if (i < histogram->bounds().size()) {
        bucket.Set("le", io::Json::Number(histogram->bounds()[i]));
      } else {
        bucket.Set("le", io::Json::String("+inf"));
      }
      bucket.Set("count", io::Json::Number(static_cast<double>(counts[i])));
      buckets.Append(std::move(bucket));
    }
    h.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(h));
  }
  io::Json out = io::Json::Object();
  out.Set("counters", std::move(counters));
  out.Set("gauges", std::move(gauges));
  out.Set("histograms", std::move(histograms));
  return out;
}

}  // namespace decaylib::obs
