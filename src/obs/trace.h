// Scoped stage timers emitting Chrome trace_event JSON, viewable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// obs::Span is the library's one stage timer.  Construction snapshots the
// steady clock; destruction (or Finish) computes the duration, returns it
// from Finish, and -- when obs::Enabled() was true at construction --
//   * appends one complete ("ph": "X") trace event -- name, ts/dur in
//     microseconds since the process trace epoch, pid, and a small stable
//     per-thread tid -- to the global TraceSink when a trace is active, and
//   * observes the duration (in ms) into an optional obs::Histogram.
// The engine records every Finish() value into the StageStats its results
// carry, so the per-stage breakdowns and the trace read the same clock.
// Same-thread spans nest by construction order, so Perfetto renders the
// engine's geometry -> kernel -> task stack as nested slices per worker.
//
// Cost model: every span costs two clock reads.  When obs::Enabled() is
// false at construction that is all it costs; when enabled but no trace is
// active, it adds a histogram update.  Event capture takes one mutex
// acquisition per span *end* -- span granularity in this library is per
// instance / per cell, so the lock is far off any inner loop.
//
// The exported document is {"traceEvents": [...], "displayTimeUnit": "ms"},
// serialised via io::Json so tests (and the CLI itself) can re-parse what
// they wrote with the same strict parser.
#pragma once

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "io/json.h"

namespace decaylib::obs {

class Histogram;

// Small stable id of the calling thread (1-based, assigned on first use).
int CurrentThreadId();

// One complete trace event ("ph": "X").
struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0.0;   // start, microseconds since the trace epoch
  double dur_us = 0.0;  // duration, microseconds
  int tid = 0;
};

// Process-global collector of trace events.  Start clears the buffer and
// begins capture; Stop ends it (buffered events stay readable until the
// next Start or Clear).  Record is thread-safe.
class TraceSink {
 public:
  static TraceSink& Global();

  void Start();
  void Stop();
  void Clear();
  bool active() const { return active_.load(std::memory_order_relaxed); }

  void Record(TraceEvent event);
  std::size_t EventCount() const;
  std::vector<TraceEvent> Events() const;  // snapshot copy

  // {"traceEvents": [{"name", "cat", "ph": "X", "ts", "dur", "pid",
  //  "tid"}, ...], "displayTimeUnit": "ms"} -- the Chrome trace-event JSON
  // object form, loadable in Perfetto.
  io::Json ToJson() const;

  // Dumps ToJson() to `path`; kIoError when the file cannot be written.
  core::Status WriteFile(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::atomic<bool> active_{false};
  std::vector<TraceEvent> events_;
};

// A reading of the span clock (steady).  Now() and MillisBetween() are the
// clock surface for intervals that no single scope covers -- the pooled
// runners time a batch from its first unit's start to its last unit's end
// -- and RecordSpan emits such an interval exactly as a Span that lived
// over [start, end]: when obs::Enabled(), it observes the duration into
// `histogram` (if any) and appends a trace event on the calling thread's
// tid.  RecordSpan returns the duration in ms either way.
using Instant = std::chrono::steady_clock::time_point;
Instant Now();
double MillisBetween(Instant start, Instant end);
double RecordSpan(std::string name, Histogram* histogram, const char* category,
                  Instant start, Instant end);

// RAII scoped timer; see the file comment for the emission rules.
class Span {
 public:
  explicit Span(std::string name, Histogram* histogram = nullptr,
                const char* category = "stage");
  ~Span() { Finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span early and returns the measured duration in ms, enabled
  // or not.  Idempotent: a second call records nothing and returns 0.
  double Finish();

 private:
  std::string name_;
  Histogram* histogram_;
  const char* category_;
  bool observed_;  // obs::Enabled() at construction: histogram + trace
  bool finished_ = false;
  Instant start_;
};

}  // namespace decaylib::obs
