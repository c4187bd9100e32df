#include "obs/bench_harness.h"

// decay-lint: allowlist-file(status-io) -- BenchHarness is the bench CLI
// surface: flag diagnostics print to stderr and Close() turns a failed
// write/re-parse into a non-zero exit code (docs/performance.md).  Library
// callers still get core::Status from Write()/LoadBenchReport().

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/check.h"
#include "core/parse.h"
#include "obs/registry.h"

namespace decaylib::obs {

namespace {

double SteadyNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The six stored statistics of a phase, in document order: ToJson writes
// them, and ParseBenchReport reads them and checks each against its
// recomputation from samples_ms.
constexpr struct {
  const char* key;
  double SampleStats::*member;
} kStatFields[] = {
    {"total_ms", &SampleStats::total_ms},
    {"min_ms", &SampleStats::min_ms},
    {"mean_ms", &SampleStats::mean_ms},
    {"median_ms", &SampleStats::median_ms},
    {"p90_ms", &SampleStats::p90_ms},
    {"stddev_ms", &SampleStats::stddev_ms},
};

// Stored stats vs a recomputation from samples_ms: harness-written records
// round-trip doubles exactly (io::Json dumps %.17g and FromSamples sums in
// sorted order both times), so the tolerance only absorbs records whose
// numbers were legitimately rounded by an external tool.
bool StatMatches(double stored, double recomputed) {
  const double tolerance =
      1e-9 * std::max({1.0, std::abs(stored), std::abs(recomputed)});
  return std::abs(stored - recomputed) <= tolerance;
}

// One phase entry.  Errors carry no prefix; the caller names the phase.
core::Status ReadPhase(const io::Json& entry, BenchPhaseRecord& phase) {
  core::Status status = entry.Read("name", &phase.name);
  status.Update(entry.Read("n", &phase.n));
  status.Update(entry.Read("reps", &phase.stats.reps, 1));
  for (const auto& [key, member] : kStatFields) {
    status.Update(entry.Read(key, &(phase.stats.*member)));
  }
  const core::StatusOr<const io::Json*> samples =
      entry.Get("samples_ms", io::Json::Kind::kArray);
  const core::StatusOr<const io::Json*> counters =
      entry.Get("counters", io::Json::Kind::kObject);
  status.Update(samples.status());
  status.Update(counters.status());
  if (!status.ok()) return status;
  for (const io::Json& sample : (*samples)->Items()) {
    if (sample.kind() != io::Json::Kind::kNumber) {
      return core::Status::InvalidArgument(
          "'samples_ms' entries must be numbers");
    }
    phase.samples_ms.push_back(sample.AsNumber());
  }
  if (phase.samples_ms.empty()) {
    return core::Status::InvalidArgument("'samples_ms' must be non-empty");
  }
  // Consistency gate: the stored stats must be derivable from samples_ms,
  // or bench_compare would trust dispersion numbers the samples do not
  // support (a hand-edited min_ms, a truncated sample list, ...).
  if (phase.stats.reps != static_cast<int>(phase.samples_ms.size())) {
    return core::Status::InvalidArgument(
        "'reps' does not match the samples_ms count");
  }
  const SampleStats recomputed = SampleStats::FromSamples(phase.samples_ms);
  for (const auto& [key, member] : kStatFields) {
    if (!StatMatches(phase.stats.*member, recomputed.*member)) {
      return core::Status::InvalidArgument(
          std::string("'") + key + "' is inconsistent with samples_ms");
    }
  }
  for (const auto& [key, value] : (*counters)->Members()) {
    status.Update((*counters)->Read(key, &phase.counters[key]));
  }
  return status;
}

// The whole document.  Errors carry no prefix; ParseBenchReport adds
// "BENCH v2: " and `context`, the part being read when it failed.
core::Status ReadReport(const io::Json& doc, BenchReportData& data,
                        std::string& context) {
  if (core::Status s = doc.Read("bench", &data.bench); !s.ok()) return s;
  context = data.bench;
  core::Status status = doc.Read("schema", &data.schema);
  if (status.ok() && data.schema != 2) {
    return core::Status::InvalidArgument("unsupported schema version (want 2)");
  }
  const core::StatusOr<const io::Json*> provenance =
      doc.Get("provenance", io::Json::Kind::kObject);
  const core::StatusOr<const io::Json*> phases =
      doc.Get("phases", io::Json::Kind::kArray);
  status.Update(provenance.status());
  status.Update(phases.status());
  if (!status.ok()) return status;
  core::StatusOr<Provenance> parsed = Provenance::FromJson(**provenance);
  if (!parsed.ok()) return parsed.status();
  data.provenance = std::move(*parsed);
  for (const io::Json& entry : (*phases)->Items()) {
    BenchPhaseRecord& phase = data.phases.emplace_back();
    status = ReadPhase(entry, phase);
    context = data.bench + " phase '" + phase.name + "'";
    if (!status.ok()) return status;
  }
  return core::Status::Ok();
}

}  // namespace

SampleStats SampleStats::FromSamples(std::span<const double> samples_ms) {
  SampleStats stats;
  stats.reps = static_cast<int>(samples_ms.size());
  if (samples_ms.empty()) return stats;
  std::vector<double> sorted(samples_ms.begin(), samples_ms.end());
  std::sort(sorted.begin(), sorted.end());
  for (const double s : sorted) stats.total_ms += s;
  stats.min_ms = sorted.front();
  stats.mean_ms = stats.total_ms / static_cast<double>(stats.reps);
  stats.median_ms = QuantileFromSorted(sorted, 0.5);
  stats.p90_ms = QuantileFromSorted(sorted, 0.9);
  double variance = 0.0;
  for (const double s : sorted) {
    const double d = s - stats.mean_ms;
    variance += d * d;
  }
  stats.stddev_ms = std::sqrt(variance / static_cast<double>(stats.reps));
  return stats;
}

const BenchPhaseRecord* BenchReportData::Find(const std::string& name) const {
  for (const BenchPhaseRecord& phase : phases) {
    if (phase.name == name) return &phase;
  }
  return nullptr;
}

core::StatusOr<BenchReportData> ParseBenchReport(const io::Json& doc) {
  BenchReportData data;
  std::string context = "document";
  if (core::Status s = ReadReport(doc, data, context); !s.ok()) {
    return core::Status::InvalidArgument("BENCH v2: " + context + ": " +
                                         s.message());
  }
  return data;
}

core::StatusOr<BenchReportData> LoadBenchReport(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return core::Status::IoError("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  core::StatusOr<io::Json> doc = io::Json::Parse(buffer.str());
  if (!doc.ok()) {
    return core::Status::IoError(path + ": " + doc.status().ToString());
  }
  core::StatusOr<BenchReportData> parsed = ParseBenchReport(*doc);
  if (!parsed.ok()) {
    return core::Status::InvalidArgument(path + ": " +
                                         parsed.status().message());
  }
  return parsed;
}

BenchHarness::BenchHarness(std::string id, int argc, char** argv,
                           Options defaults)
    : id_(std::move(id)), clock_(SteadyNowMs) {
  ParseArgs(argc, argv, defaults);
}

BenchHarness::BenchHarness(std::string id, int argc, char** argv)
    : BenchHarness(std::move(id), argc, argv, Options{}) {}

BenchHarness::BenchHarness(std::string id, Options options, Clock clock)
    : id_(std::move(id)), options_(options), clock_(std::move(clock)) {
  if (clock_ == nullptr) clock_ = SteadyNowMs;
}

bool BenchHarness::IsHarnessFlag(const char* arg, bool* takes_value) {
  *takes_value = false;
  if (std::strcmp(arg, "--json") == 0) return true;
  if (std::strcmp(arg, "--reps") == 0 || std::strcmp(arg, "--warmup") == 0 ||
      std::strcmp(arg, "--min-time-ms") == 0) {
    *takes_value = true;
    return true;
  }
  return false;
}

void BenchHarness::ParseArgs(int argc, char** argv, const Options& defaults) {
  options_ = defaults;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool takes_value = false;
    if (!IsHarnessFlag(arg, &takes_value)) continue;
    if (!takes_value) {  // --json
      options_.write_json = true;
      continue;
    }
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    ++i;
    long long int_value = 0;
    double double_value = 0.0;
    if (std::strcmp(arg, "--reps") == 0) {
      if (core::ParseInt(value, 1, kMaxSamplesPerPhase, &int_value)) {
        options_.reps = static_cast<int>(int_value);
        continue;
      }
      std::fprintf(stderr, "--reps: expected an integer in [1, %d], got '%s'\n",
                   kMaxSamplesPerPhase, value == nullptr ? "" : value);
    } else if (std::strcmp(arg, "--warmup") == 0) {
      if (core::ParseInt(value, 0, kMaxSamplesPerPhase, &int_value)) {
        options_.warmup = static_cast<int>(int_value);
        continue;
      }
      std::fprintf(stderr,
                   "--warmup: expected an integer in [0, %d], got '%s'\n",
                   kMaxSamplesPerPhase, value == nullptr ? "" : value);
    } else {  // --min-time-ms
      if (core::ParseDouble(value, 0.0, 1e9, &double_value)) {
        options_.min_time_ms = double_value;
        continue;
      }
      std::fprintf(stderr,
                   "--min-time-ms: expected a number in [0, 1e9], got '%s'\n",
                   value == nullptr ? "" : value);
    }
    args_ok_ = false;
  }
}

SampleStats BenchHarness::Time(const std::string& name, long long n,
                               const std::function<void()>& fn) {
  for (int w = 0; w < options_.warmup; ++w) fn();
  ScopedCounterCapture capture;
  std::vector<double> samples;
  double total = 0.0;
  const int reps = std::max(1, options_.reps);
  while (static_cast<int>(samples.size()) < reps ||
         total < options_.min_time_ms) {
    if (static_cast<int>(samples.size()) >= kMaxSamplesPerPhase) break;
    const double start = clock_();
    fn();
    const double elapsed = std::max(0.0, clock_() - start);
    samples.push_back(elapsed);
    total += elapsed;
  }
  return AddSamples(name, n, std::move(samples), capture.Take());
}

SampleStats BenchHarness::AddSamples(
    const std::string& name, long long n, std::vector<double> samples_ms,
    std::map<std::string, long long> counters) {
  DL_CHECK(!samples_ms.empty(), "a bench phase needs at least one sample");
  BenchPhaseRecord phase;
  phase.name = name;
  phase.n = n;
  phase.stats = SampleStats::FromSamples(samples_ms);
  phase.samples_ms = std::move(samples_ms);
  phase.counters = std::move(counters);
  phases_.push_back(std::move(phase));
  return phases_.back().stats;
}

void BenchHarness::Record(const std::string& name, long long n,
                          double wall_ms) {
  AddSamples(name, n, {wall_ms});
}

void BenchHarness::SetExtra(const std::string& key, io::Json value) {
  extras_.emplace_back(key, std::move(value));
}

io::Json BenchHarness::ToJson() const {
  io::Json doc = io::Json::Object();
  doc.Set("bench", io::Json::String(id_));
  doc.Set("schema", io::Json::Number(2));
  doc.Set("provenance", Provenance::Collect().ToJson());
  io::Json phases = io::Json::Array();
  for (const BenchPhaseRecord& phase : phases_) {
    io::Json entry = io::Json::Object();
    entry.Put("name", phase.name);
    entry.Put("n", phase.n);
    entry.Put("reps", phase.stats.reps);
    // v1 compatibility: "wall_ms" stays the headline (minimum) sample.
    entry.Put("wall_ms", phase.stats.min_ms);
    for (const auto& [key, member] : kStatFields) {
      entry.Put(key, phase.stats.*member);
    }
    io::Json samples = io::Json::Array();
    for (const double sample : phase.samples_ms) {
      samples.Append(io::Json::Number(sample));
    }
    entry.Set("samples_ms", std::move(samples));
    io::Json counters = io::Json::Object();
    for (const auto& [counter, delta] : phase.counters) {
      counters.Put(counter, delta);
    }
    entry.Set("counters", std::move(counters));
    phases.Append(std::move(entry));
  }
  doc.Set("phases", std::move(phases));
  for (const auto& [key, value] : extras_) doc.Set(key, value);
  return doc;
}

core::Status BenchHarness::Write() const {
  const std::string path = "BENCH_" + id_ + ".json";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return core::Status::IoError("cannot write " + path);
    out << ToJson().Dump() << "\n";
    out.flush();
    if (!out) return core::Status::IoError("write to " + path + " failed");
  }
  // Round-trip gate: the file on disk must re-parse as valid schema v2, so
  // a truncated or malformed record fails the bench instead of poisoning
  // the baseline store.
  const core::StatusOr<BenchReportData> parsed = LoadBenchReport(path);
  if (!parsed.ok()) return parsed.status();
  std::printf("wrote %s (%zu phases, schema v2)\n", path.c_str(),
              phases_.size());
  return core::Status::Ok();
}

int BenchHarness::Close() const {
  if (!options_.write_json) return 0;
  if (const core::Status status = Write(); !status.ok()) {
    std::fprintf(stderr, "BenchHarness: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

ScopedCounterCapture::ScopedCounterCapture()
    : before_(Registry::Global().CounterValues()), was_enabled_(Enabled()) {
  SetEnabled(true);
}

ScopedCounterCapture::~ScopedCounterCapture() {
  if (!taken_) SetEnabled(was_enabled_);
}

std::map<std::string, long long> ScopedCounterCapture::Take() {
  if (!taken_) {
    SetEnabled(was_enabled_);
    taken_ = true;
  }
  std::map<std::string, long long> delta;
  for (const auto& [name, value] : Registry::Global().CounterValues()) {
    const auto it = before_.find(name);
    const long long base = it == before_.end() ? 0 : it->second;
    if (value != base) delta[name] = value - base;
  }
  return delta;
}

}  // namespace decaylib::obs
