#include "obs/trace.h"

#include <cstdio>

#include "obs/registry.h"

namespace decaylib::obs {

namespace {

// The trace epoch: first call wins, so every ts is a small non-negative
// offset instead of a raw steady_clock reading.
std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

double MicrosSinceEpoch(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - TraceEpoch()).count();
}

}  // namespace

int CurrentThreadId() {
  static std::atomic<int> next{1};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceSink& TraceSink::Global() {
  static TraceSink* sink = new TraceSink();  // leaked: outlives all users
  return *sink;
}

void TraceSink::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  (void)TraceEpoch();  // pin the epoch no later than the first event
  active_.store(true, std::memory_order_relaxed);
}

void TraceSink::Stop() { active_.store(false, std::memory_order_relaxed); }

void TraceSink::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

void TraceSink::Record(TraceEvent event) {
  if (!active()) return;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::size_t TraceSink::EventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceSink::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

io::Json TraceSink::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  io::Json events = io::Json::Array();
  for (const TraceEvent& e : events_) {
    io::Json event = io::Json::Object();
    event.Set("name", io::Json::String(e.name));
    event.Set("cat", io::Json::String(e.category));
    event.Set("ph", io::Json::String("X"));
    event.Set("ts", io::Json::Number(e.ts_us));
    event.Set("dur", io::Json::Number(e.dur_us));
    event.Set("pid", io::Json::Number(1.0));
    event.Set("tid", io::Json::Number(static_cast<double>(e.tid)));
    events.Append(std::move(event));
  }
  io::Json out = io::Json::Object();
  out.Set("traceEvents", std::move(events));
  out.Set("displayTimeUnit", io::Json::String("ms"));
  return out;
}

core::Status TraceSink::WriteFile(const std::string& path) const {
  const std::string text = ToJson().Dump();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return core::Status::IoError("cannot write trace file " + path);
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), out);
  const bool flushed = std::fclose(out) == 0;
  if (written != text.size() || !flushed) {
    return core::Status::IoError("short write to trace file " + path);
  }
  return core::Status::Ok();
}

Span::Span(std::string name, Histogram* histogram, const char* category)
    : name_(std::move(name)),
      histogram_(histogram),
      category_(category),
      observed_(Enabled()),
      start_(Now()) {}

namespace {

// The emission half of a span: histogram + trace event, for an interval
// that was observed (obs::Enabled()) when it began.
void Emit(std::string name, Histogram* histogram, const char* category,
          Instant start, double dur_ms) {
  if (histogram != nullptr) histogram->Observe(dur_ms);
  TraceSink& sink = TraceSink::Global();
  if (sink.active()) {
    TraceEvent event;
    event.name = std::move(name);
    event.category = category;
    event.ts_us = MicrosSinceEpoch(start);
    event.dur_us = 1e3 * dur_ms;
    event.tid = CurrentThreadId();
    sink.Record(std::move(event));
  }
}

}  // namespace

Instant Now() { return std::chrono::steady_clock::now(); }

double MillisBetween(Instant start, Instant end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double RecordSpan(std::string name, Histogram* histogram, const char* category,
                  Instant start, Instant end) {
  const double dur_ms = MillisBetween(start, end);
  if (Enabled()) Emit(std::move(name), histogram, category, start, dur_ms);
  return dur_ms;
}

double Span::Finish() {
  if (finished_) return 0.0;
  finished_ = true;
  const double dur_ms = MillisBetween(start_, Now());
  if (observed_) Emit(std::move(name_), histogram_, category_, start_, dur_ms);
  return dur_ms;
}

}  // namespace decaylib::obs
