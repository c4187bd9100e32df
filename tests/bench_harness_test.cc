// BENCH v2 harness tests: sample statistics under an injected clock,
// provenance round trips, strict schema-v2 re-parse validation of written
// records, harness CLI flag parsing, counter-delta capture, and the
// noise-aware bench_compare verdict logic (regression / improvement /
// within-noise / missing- and new-phase handling).
#include "obs/bench_harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/bench_compare.h"
#include "obs/registry.h"

namespace decaylib::obs {
namespace {

// Injected clock: each call returns the next scripted instant, so Time()
// sample durations are exact.  Repeats the last step when the script runs
// out (min_time_ms loops decide termination from the returned values).
class FakeClock {
 public:
  explicit FakeClock(std::vector<double> instants)
      : instants_(std::move(instants)) {}

  double operator()() {
    if (next_ < instants_.size()) return instants_[next_++];
    last_ += 1.0;
    return last_;
  }

 private:
    std::vector<double> instants_;
  std::size_t next_ = 0;
  double last_ = 1e9;
};

// io::Json::Set appends (Find returns the first match), so "mutating" a
// key means rebuilding the object with the replacement in place.
io::Json WithMember(const io::Json& object, const std::string& key,
                    io::Json value) {
  io::Json rebuilt = io::Json::Object();
  for (const auto& [name, member] : object.Members()) {
    rebuilt.Set(name, name == key ? std::move(value) : member);
  }
  return rebuilt;
}

// Every test restores the process-global obs enable flag (harness Time()
// toggles it around each phase; a failing expectation must not leak state).
class BenchHarnessTest : public ::testing::Test {
 protected:
  void TearDown() override { SetEnabled(false); }
};

TEST_F(BenchHarnessTest, SampleStatsFromSamples) {
  const std::vector<double> samples = {50.0, 10.0, 40.0, 20.0, 30.0};
  const SampleStats stats = SampleStats::FromSamples(samples);
  EXPECT_EQ(stats.reps, 5);
  EXPECT_DOUBLE_EQ(stats.total_ms, 150.0);
  EXPECT_DOUBLE_EQ(stats.min_ms, 10.0);
  EXPECT_DOUBLE_EQ(stats.mean_ms, 30.0);
  EXPECT_DOUBLE_EQ(stats.median_ms, 30.0);
  // p90 over sorted {10,20,30,40,50}: rank 0.9 * 4 = 3.6 -> 40 + 0.6 * 10.
  EXPECT_DOUBLE_EQ(stats.p90_ms, 46.0);
  // Population stddev: sqrt(mean of squared deviations) = sqrt(200).
  EXPECT_DOUBLE_EQ(stats.stddev_ms, std::sqrt(200.0));
}

TEST_F(BenchHarnessTest, SampleStatsSingleSampleHasZeroSpread) {
  const std::vector<double> one = {7.25};
  const SampleStats stats = SampleStats::FromSamples(one);
  EXPECT_EQ(stats.reps, 1);
  EXPECT_DOUBLE_EQ(stats.min_ms, 7.25);
  EXPECT_DOUBLE_EQ(stats.mean_ms, 7.25);
  EXPECT_DOUBLE_EQ(stats.median_ms, 7.25);
  EXPECT_DOUBLE_EQ(stats.p90_ms, 7.25);
  EXPECT_DOUBLE_EQ(stats.stddev_ms, 0.0);
}

TEST_F(BenchHarnessTest, TimeUsesInjectedClockPerSample) {
  // Three reps, one warmup.  The warmup run is untimed (no clock reads);
  // each timed sample reads the clock twice: durations 10, 20, 30.
  BenchHarness harness(
      "CLOCKED", BenchHarness::Options{.reps = 3, .warmup = 1},
      FakeClock({0.0, 10.0, 10.0, 30.0, 30.0, 60.0}));
  int calls = 0;
  const SampleStats stats = harness.Time("phase", 42, [&] { ++calls; });
  EXPECT_EQ(calls, 4);  // 1 warmup + 3 timed
  EXPECT_EQ(stats.reps, 3);
  EXPECT_DOUBLE_EQ(stats.min_ms, 10.0);
  EXPECT_DOUBLE_EQ(stats.mean_ms, 20.0);
  EXPECT_DOUBLE_EQ(stats.median_ms, 20.0);
  EXPECT_DOUBLE_EQ(stats.total_ms, 60.0);
  ASSERT_EQ(harness.PhaseCount(), 1u);
}

TEST_F(BenchHarnessTest, MinTimeMsExtendsSampling) {
  // reps = 1 but min_time_ms = 25: 10ms samples keep coming until the
  // total clears 25ms -- three samples.
  BenchHarness harness(
      "MINTIME", BenchHarness::Options{.reps = 1, .min_time_ms = 25.0},
      FakeClock({0.0, 10.0, 10.0, 20.0, 20.0, 30.0}));
  const SampleStats stats = harness.Time("phase", 1, [] {});
  EXPECT_EQ(stats.reps, 3);
  EXPECT_DOUBLE_EQ(stats.total_ms, 30.0);
}

TEST_F(BenchHarnessTest, CliFlagsOverrideDefaults) {
  const char* argv[] = {"bench", "--json", "--reps", "5", "--warmup", "2",
                        "--min-time-ms", "12.5", "--other-flag"};
  BenchHarness harness("CLI", 9, const_cast<char**>(argv),
                       BenchHarness::Options{.reps = 2});
  EXPECT_TRUE(harness.args_ok());
  EXPECT_TRUE(harness.enabled());
  EXPECT_EQ(harness.options().reps, 5);
  EXPECT_EQ(harness.options().warmup, 2);
  EXPECT_DOUBLE_EQ(harness.options().min_time_ms, 12.5);
}

TEST_F(BenchHarnessTest, MalformedCliFlagClearsArgsOk) {
  const char* argv[] = {"bench", "--reps", "zero"};
  BenchHarness harness("CLI", 3, const_cast<char**>(argv));
  EXPECT_FALSE(harness.args_ok());
}

TEST_F(BenchHarnessTest, IsHarnessFlagClassifiesFlags) {
  bool takes_value = false;
  EXPECT_TRUE(BenchHarness::IsHarnessFlag("--json", &takes_value));
  EXPECT_FALSE(takes_value);
  EXPECT_TRUE(BenchHarness::IsHarnessFlag("--reps", &takes_value));
  EXPECT_TRUE(takes_value);
  EXPECT_TRUE(BenchHarness::IsHarnessFlag("--warmup", &takes_value));
  EXPECT_TRUE(BenchHarness::IsHarnessFlag("--min-time-ms", &takes_value));
  EXPECT_FALSE(BenchHarness::IsHarnessFlag("--links", &takes_value));
  EXPECT_FALSE(BenchHarness::IsHarnessFlag("--repsx", &takes_value));
}

TEST_F(BenchHarnessTest, ProvenanceJsonRoundTrips) {
  Provenance p;
  p.git_sha = "abc123";
  p.git_dirty = true;
  p.build_type = "Release";
  p.compiler = "gcc 12.2.0";
  p.ndebug = true;
  p.sanitizers = "address,undefined";
  p.hardware_threads = 16;
  p.hostname = "ci-runner-3";
  p.timestamp_utc = "2026-08-07T12:34:56Z";
  const auto parsed = Provenance::FromJson(p.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value(), p);
}

TEST_F(BenchHarnessTest, ProvenanceFromJsonRejectsMissingAndWrongKind) {
  const Provenance p = Provenance::Collect();
  EXPECT_FALSE(p.timestamp_utc.empty());

  io::Json missing = p.ToJson();
  io::Json without = io::Json::Object();
  for (const auto& [key, value] : missing.Members()) {
    if (key != "git_sha") without.Set(key, value);
  }
  EXPECT_FALSE(Provenance::FromJson(without).ok());

  const io::Json wrong_kind =
      WithMember(p.ToJson(), "git_dirty", io::Json::String("yes"));
  EXPECT_FALSE(Provenance::FromJson(wrong_kind).ok());
}

// A thread count beyond int's range is refused, naming the field, instead
// of being cast (an undefined float-to-int conversion that read back as
// INT_MIN); so is a fractional one.
TEST_F(BenchHarnessTest, ProvenanceRejectsOutOfRangeThreadCount) {
  for (const double threads : {1e300, -1e300, 4.5, 2147483648.0}) {
    const core::StatusOr<Provenance> parsed = Provenance::FromJson(
        WithMember(Provenance().ToJson(), "hardware_threads",
                   io::Json::Number(threads)));
    ASSERT_FALSE(parsed.ok()) << threads;
    EXPECT_EQ(parsed.status().code(), core::StatusCode::kInvalidArgument);
    EXPECT_EQ(parsed.status().message().rfind("provenance: ", 0), 0u)
        << parsed.status().message();
    EXPECT_NE(parsed.status().message().find("hardware_threads"),
              std::string::npos)
        << parsed.status().message();
  }
  ASSERT_TRUE(Provenance::FromJson(
                  WithMember(Provenance().ToJson(), "hardware_threads",
                             io::Json::Number(2147483647.0)))
                  .ok());
}

TEST_F(BenchHarnessTest, WrittenRecordReparsesAsSchemaV2) {
  BenchHarness harness("HARNESS_TEST",
                       BenchHarness::Options{.write_json = true});
  harness.Record("one_shot", 64, 3.5);
  harness.AddSamples("sampled", 128, {2.0, 1.0, 3.0},
                     {{"test.counter", 7}});
  io::Json extra = io::Json::Array();
  extra.Append(io::Json::Number(1.0));
  harness.SetExtra("scenarios", std::move(extra));
  EXPECT_EQ(harness.Close(), 0);

  const auto loaded = LoadBenchReport("BENCH_HARNESS_TEST.json");
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const BenchReportData& data = loaded.value();
  EXPECT_EQ(data.bench, "HARNESS_TEST");
  EXPECT_EQ(data.schema, 2);
  EXPECT_FALSE(data.provenance.timestamp_utc.empty());
  ASSERT_EQ(data.phases.size(), 2u);

  const BenchPhaseRecord* one_shot = data.Find("one_shot");
  ASSERT_NE(one_shot, nullptr);
  EXPECT_EQ(one_shot->n, 64);
  EXPECT_DOUBLE_EQ(one_shot->stats.min_ms, 3.5);
  EXPECT_EQ(one_shot->samples_ms.size(), 1u);

  const BenchPhaseRecord* sampled = data.Find("sampled");
  ASSERT_NE(sampled, nullptr);
  EXPECT_DOUBLE_EQ(sampled->stats.min_ms, 1.0);
  EXPECT_DOUBLE_EQ(sampled->stats.median_ms, 2.0);
  EXPECT_EQ(sampled->counters.at("test.counter"), 7);
  EXPECT_EQ(data.Find("absent"), nullptr);

  std::remove("BENCH_HARNESS_TEST.json");
}

TEST_F(BenchHarnessTest, ParseBenchReportRejectsMalformedDocuments) {
  BenchHarness harness("VALID", BenchHarness::Options{});
  harness.Record("phase", 8, 1.0);
  const io::Json good = harness.ToJson();
  ASSERT_TRUE(ParseBenchReport(good).ok());

  const io::Json wrong_schema =
      WithMember(good, "schema", io::Json::Number(1.0));
  EXPECT_FALSE(ParseBenchReport(wrong_schema).ok());

  io::Json no_provenance = io::Json::Object();
  for (const auto& [key, value] : good.Members()) {
    if (key != "provenance") no_provenance.Set(key, value);
  }
  EXPECT_FALSE(ParseBenchReport(no_provenance).ok());

  io::Json phases = io::Json::Array();
  phases.Append(WithMember(good.Find("phases")->Items()[0], "samples_ms",
                           io::Json::Array()));
  const io::Json empty_samples =
      WithMember(good, "phases", std::move(phases));
  EXPECT_FALSE(ParseBenchReport(empty_samples).ok());

  // Integer fields that are fractional or beyond their type's range: a cast
  // of them would be undefined (or, for reps 1.5 and schema 2.5, would
  // truncate into a value that passes the later checks).
  const auto with_phase_member = [&good](const std::string& key,
                                         io::Json value) {
    io::Json one = io::Json::Array();
    one.Append(WithMember(good.Find("phases")->Items()[0], key,
                          std::move(value)));
    return WithMember(good, "phases", std::move(one));
  };
  const auto counter = [](double value) {
    io::Json counters = io::Json::Object();
    counters.Set("sinr.kernel_builds", io::Json::Number(value));
    return counters;
  };
  const io::Json bad_integers[] = {
      WithMember(good, "schema", io::Json::Number(2.5)),
      WithMember(good, "schema", io::Json::Number(1e300)),
      with_phase_member("n", io::Json::Number(8.5)),
      with_phase_member("n", io::Json::Number(1e300)),
      with_phase_member("reps", io::Json::Number(1.5)),
      with_phase_member("reps", io::Json::Number(1e300)),
      with_phase_member("counters", counter(0.5)),
      with_phase_member("counters", counter(1e300)),
  };
  for (const io::Json& doc : bad_integers) {
    EXPECT_FALSE(ParseBenchReport(doc).ok()) << doc.Dump();
  }
  ASSERT_TRUE(ParseBenchReport(with_phase_member("counters", counter(3.0)))
                  .ok());
}

TEST_F(BenchHarnessTest, ReturnedStatsSurviveLaterPhases) {
  // Time()/AddSamples() return by value: stats taken from an early phase
  // must stay valid after enough later phases to force phases_ to
  // reallocate (the dangling-reference regression this guards against).
  BenchHarness harness("STABLE", BenchHarness::Options{});
  const SampleStats first = harness.AddSamples("first", 1, {5.0});
  for (int i = 0; i < 64; ++i) {
    harness.AddSamples("later_" + std::to_string(i), 1, {1.0});
  }
  EXPECT_DOUBLE_EQ(first.min_ms, 5.0);
  EXPECT_EQ(first.reps, 1);
}

TEST_F(BenchHarnessTest, ParseBenchReportRejectsInconsistentStats) {
  BenchHarness harness("CONSISTENT", BenchHarness::Options{});
  harness.AddSamples("phase", 8, {2.0, 1.0, 3.0});
  const io::Json good = harness.ToJson();
  ASSERT_TRUE(ParseBenchReport(good).ok());

  const auto with_phase_member = [&good](const std::string& key,
                                         io::Json value) {
    io::Json phases = io::Json::Array();
    phases.Append(WithMember(good.Find("phases")->Items()[0], key,
                             std::move(value)));
    return WithMember(good, "phases", std::move(phases));
  };

  // reps disagrees with the samples_ms count.
  const auto bad_reps =
      ParseBenchReport(with_phase_member("reps", io::Json::Number(2)));
  ASSERT_FALSE(bad_reps.ok());
  EXPECT_NE(bad_reps.status().message().find("reps"), std::string::npos);

  // A hand-edited min_ms the samples do not support.
  const auto bad_min =
      ParseBenchReport(with_phase_member("min_ms", io::Json::Number(0.5)));
  ASSERT_FALSE(bad_min.ok());
  EXPECT_NE(bad_min.status().message().find("min_ms"), std::string::npos);

  // A truncated sample list (stats still describe three samples).
  io::Json one_sample = io::Json::Array();
  one_sample.Append(io::Json::Number(1.0));
  EXPECT_FALSE(
      ParseBenchReport(with_phase_member("samples_ms", std::move(one_sample)))
          .ok());

  // stddev inconsistent with the (zero-spread) samples.
  BenchHarness flat("FLAT", BenchHarness::Options{});
  flat.AddSamples("phase", 8, {2.0, 2.0});
  io::Json flat_phases = io::Json::Array();
  flat_phases.Append(WithMember(flat.ToJson().Find("phases")->Items()[0],
                                "stddev_ms", io::Json::Number(1.0)));
  EXPECT_FALSE(
      ParseBenchReport(WithMember(flat.ToJson(), "phases",
                                  std::move(flat_phases)))
          .ok());
}

TEST_F(BenchHarnessTest, ScopedCounterCaptureReturnsNonzeroDeltas) {
  SetEnabled(false);
  Registry::Global().GetCounter("bench_test.captured").Reset();
  Registry::Global().GetCounter("bench_test.untouched").Reset();
  {
    ScopedCounterCapture capture;
    EXPECT_TRUE(Enabled());  // capture turns obs on for the timed section
    Registry::Global().GetCounter("bench_test.captured").Add(3);
    const std::map<std::string, long long> deltas = capture.Take();
    EXPECT_EQ(deltas.at("bench_test.captured"), 3);
    EXPECT_EQ(deltas.count("bench_test.untouched"), 0u);
  }
  EXPECT_FALSE(Enabled());  // previous (off) state restored
}

// --- bench_compare verdict logic ------------------------------------------

BenchReportData MakeReport(
    std::vector<std::tuple<std::string, double, double>> phases) {
  BenchReportData data;
  data.bench = "CMP";
  data.schema = 2;
  for (auto& [name, min_ms, stddev_ms] : phases) {
    BenchPhaseRecord record;
    record.name = name;
    record.n = 1;
    record.stats.reps = 1;
    record.stats.min_ms = min_ms;
    record.stats.mean_ms = min_ms;
    record.stats.median_ms = min_ms;
    record.stats.p90_ms = min_ms;
    record.stats.total_ms = min_ms;
    record.stats.stddev_ms = stddev_ms;
    record.samples_ms = {min_ms};
    data.phases.push_back(std::move(record));
  }
  return data;
}

TEST_F(BenchHarnessTest, CompareFlagsRegressionBeyondAllGuards) {
  const BenchReportData base = MakeReport({{"hot", 10.0, 0.5}});
  const BenchReportData cur = MakeReport({{"hot", 25.0, 0.5}});
  const CompareResult result = CompareBenchReports(base, cur, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.regressions, 1);
  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_EQ(result.deltas[0].verdict, DeltaVerdict::kRegression);
  EXPECT_DOUBLE_EQ(result.deltas[0].delta_ms, 15.0);
  EXPECT_DOUBLE_EQ(result.deltas[0].rel, 1.5);
}

TEST_F(BenchHarnessTest, CompareFlagsImprovementSymmetrically) {
  const BenchReportData base = MakeReport({{"hot", 20.0, 0.2}});
  const BenchReportData cur = MakeReport({{"hot", 10.0, 0.2}});
  const CompareResult result = CompareBenchReports(base, cur, {});
  EXPECT_TRUE(result.ok());  // improvements never fail the gate
  EXPECT_EQ(result.improvements, 1);
  EXPECT_EQ(result.deltas[0].verdict, DeltaVerdict::kImprovement);
}

TEST_F(BenchHarnessTest, CompareTreatsSubThresholdDeltasAsNoise) {
  // 20% over a 25% relative threshold: within noise even though the
  // absolute and sigma guards would fire.
  const BenchReportData base = MakeReport({{"rel_guard", 10.0, 0.01}});
  const BenchReportData cur = MakeReport({{"rel_guard", 12.0, 0.01}});
  EXPECT_EQ(CompareBenchReports(base, cur, {}).deltas[0].verdict,
            DeltaVerdict::kWithinNoise);

  // 3x but on a microsecond phase: below the 0.5ms absolute floor.
  const BenchReportData tiny_base = MakeReport({{"abs_guard", 0.1, 0.0}});
  const BenchReportData tiny_cur = MakeReport({{"abs_guard", 0.3, 0.0}});
  EXPECT_EQ(CompareBenchReports(tiny_base, tiny_cur, {}).deltas[0].verdict,
            DeltaVerdict::kWithinNoise);

  // Huge relative + absolute delta, but inside 3 sigma of a noisy run.
  const BenchReportData noisy_base = MakeReport({{"sigma_guard", 10.0, 8.0}});
  const BenchReportData noisy_cur = MakeReport({{"sigma_guard", 30.0, 8.0}});
  EXPECT_EQ(CompareBenchReports(noisy_base, noisy_cur, {}).deltas[0].verdict,
            DeltaVerdict::kWithinNoise);
}

TEST_F(BenchHarnessTest, CompareFlagsRegressionFromZeroBaseline) {
  // A sub-timer-resolution baseline (min_ms == 0) must not mask an
  // arbitrarily large slowdown: rel becomes +inf so the relative guard
  // passes and the sigma/absolute guards decide.
  const BenchReportData base = MakeReport({{"tiny", 0.0, 0.0}});
  const BenchReportData cur = MakeReport({{"tiny", 5.0, 0.1}});
  const CompareResult result = CompareBenchReports(base, cur, {});
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_EQ(result.deltas[0].verdict, DeltaVerdict::kRegression);
  EXPECT_TRUE(std::isinf(result.deltas[0].rel));

  // Identical zero-baseline runs stay within noise.
  const BenchReportData same = MakeReport({{"tiny", 0.0, 0.0}});
  EXPECT_EQ(CompareBenchReports(base, same, {}).deltas[0].verdict,
            DeltaVerdict::kWithinNoise);
}

TEST_F(BenchHarnessTest, CompareHandlesMissingAndNewPhases) {
  const BenchReportData base = MakeReport({{"kept", 5.0, 0.1},
                                           {"removed", 5.0, 0.1}});
  const BenchReportData cur = MakeReport({{"kept", 5.0, 0.1},
                                          {"added", 5.0, 0.1}});
  const CompareResult strict = CompareBenchReports(base, cur, {});
  EXPECT_FALSE(strict.ok());  // a vanished phase is a regression by default
  ASSERT_EQ(strict.deltas.size(), 3u);
  EXPECT_EQ(strict.deltas[0].verdict, DeltaVerdict::kWithinNoise);
  EXPECT_EQ(strict.deltas[1].verdict, DeltaVerdict::kMissingPhase);
  EXPECT_EQ(strict.deltas[2].verdict, DeltaVerdict::kNewPhase);

  CompareOptions lenient;
  lenient.allow_missing = true;
  EXPECT_TRUE(CompareBenchReports(base, cur, lenient).ok());
}

TEST_F(BenchHarnessTest, CompareMarkdownTableSummarisesVerdicts) {
  const BenchReportData base = MakeReport({{"hot", 10.0, 0.1}});
  const BenchReportData cur = MakeReport({{"hot", 25.0, 0.1}});
  const CompareResult result = CompareBenchReports(base, cur, {});
  const std::string table = CompareMarkdownTable(result, "CMP");
  EXPECT_NE(table.find("### CMP"), std::string::npos);
  EXPECT_NE(table.find("| hot |"), std::string::npos);
  EXPECT_NE(table.find("regression"), std::string::npos);
  EXPECT_NE(table.find("1 regression(s)"), std::string::npos);
}

TEST_F(BenchHarnessTest, CompareSurfacesProvenanceMismatches) {
  BenchReportData base = MakeReport({{"hot", 5.0, 0.1}});
  BenchReportData cur = MakeReport({{"hot", 5.0, 0.1}});
  base.provenance.build_type = "Release";
  cur.provenance.build_type = "Assert";
  base.provenance.hostname = "host-a";
  cur.provenance.hostname = "host-b";
  const CompareResult result = CompareBenchReports(base, cur, {});
  EXPECT_TRUE(result.ok());  // warnings, not failures
  EXPECT_GE(result.provenance_warnings.size(), 2u);
}

#ifndef NDEBUG
TEST(BenchTableDeathTest, AddRowRejectsArityMismatch) {
  bench::Table table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "arity");
}
#endif

}  // namespace
}  // namespace decaylib::obs
