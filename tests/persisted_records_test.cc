// The persisted records and every parser of outside input.
//
// RecordBytesTest pins the bytes the three JSON record writers emit for
// fixed inputs (the checkpoint sidecar, provenance, a BENCH v2 document),
// so a change to how a record lists its fields cannot silently change its
// format under saved sidecars and committed baselines, and loads every
// committed baseline.
//
// ParserFuzzTest is deterministic mutation fuzzing: one valid document per
// format, mutated by a seeded geom::Rng with byte flips, inserts, deletes
// and truncations.  Every mutant must come back as a value or a Status --
// a crash or a DL_CHECK abort fails the whole test binary -- and a mutant
// that is accepted must satisfy what its parser promises (finite numbers,
// values in range, a stable round trip).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>

#include "core/parse.h"
#include "core/status.h"
#include "engine/batch_runner.h"
#include "geom/rng.h"
#include "io/csv.h"
#include "io/json.h"
#include "obs/bench_harness.h"
#include "obs/provenance.h"
#include "sweep/checkpoint.h"

namespace decaylib {
namespace {

sweep::SweepCheckpoint FixedCheckpoint() {
  sweep::SweepCheckpoint doc;
  doc.sweep = "pin \"q\"";
  doc.spec_hash = "0123456789abcdef";
  doc.grid = 6;
  engine::MetricSummary zeta;
  zeta.Add(1.0 / 3.0);
  zeta.Add(2.5);
  engine::MetricSummary tiny;
  tiny.Add(-2.5e-300);
  tiny.Add(-0.0);
  const engine::MetricSummary empty;  // count 0, min +inf, max -inf
  doc.cells.push_back({0, 1, 3, {{"zeta", zeta}, {"alg1_size", empty}}});
  doc.cells.push_back({4, 2, 3, {{"zeta", tiny}, {"alg1_size", zeta}}});
  return doc;
}

obs::Provenance FixedProvenance() {
  obs::Provenance p;
  p.git_sha = "0217979";
  p.git_dirty = true;
  p.build_type = "Release";
  p.compiler = "gcc \"12\"\n";
  p.ndebug = true;
  p.sanitizers = "none";
  p.hardware_threads = 16;
  p.hostname = "host-a";
  p.timestamp_utc = "2026-10-21T12:00:00Z";
  return p;
}

// A BENCH v2 document with FixedProvenance in place of the collected one
// (Collect reads the clock, the host and git).
io::Json FixedBenchReport() {
  obs::BenchHarness harness("PIN", obs::BenchHarness::Options{});
  harness.AddSamples("sampled", 64, {2.0, 1.0, 3.0, 0.1},
                     {{"sinr.kernel_builds", 3}, {"engine.instances", 12}});
  harness.Record("one_shot", 8, 1.0 / 3.0);
  io::Json extra = io::Json::Array();
  extra.Append(io::Json::Number(1.5));
  harness.SetExtra("scenarios", std::move(extra));
  const io::Json written = harness.ToJson();
  io::Json doc = io::Json::Object();
  for (const auto& [key, value] : written.Members()) {
    doc.Set(key, key == "provenance" ? FixedProvenance().ToJson() : value);
  }
  return doc;
}

TEST(RecordBytesTest, WritersKeepTheirPinnedBytes) {
  EXPECT_EQ(sweep::CheckpointToJson(FixedCheckpoint()),
            R"({"sweep":"pin \"q\"","spec_hash":"0123456789abcdef","grid":6,)"
            R"("cells":[{"index":0,"attempts":1,"instances":3,)"
            R"("aggregate":[{"name":"zeta","sum":"2.8333333333333335",)"
            R"("min":"0.33333333333333331","max":"2.5","count":2},)"
            R"({"name":"alg1_size","sum":"0","min":"inf","max":"-inf",)"
            R"("count":0}]},{"index":4,"attempts":2,"instances":3,)"
            R"("aggregate":[{"name":"zeta","sum":"-2.5e-300",)"
            R"("min":"-2.5e-300","max":"-0","count":2},{"name":"alg1_size",)"
            R"("sum":"2.8333333333333335","min":"0.33333333333333331",)"
            R"("max":"2.5","count":2}]}]})");
  EXPECT_EQ(FixedProvenance().ToJson().Dump(),
            R"({"git_sha":"0217979","git_dirty":true,"build_type":"Release",)"
            R"("compiler":"gcc \"12\"\n","ndebug":true,"sanitizers":"none",)"
            R"("hardware_threads":16,"hostname":"host-a",)"
            R"("timestamp_utc":"2026-10-21T12:00:00Z"})");
  EXPECT_EQ(FixedBenchReport().Dump(),
            R"({"bench":"PIN","schema":2,"provenance":{"git_sha":"0217979",)"
            R"("git_dirty":true,"build_type":"Release",)"
            R"("compiler":"gcc \"12\"\n","ndebug":true,"sanitizers":"none",)"
            R"("hardware_threads":16,"hostname":"host-a",)"
            R"("timestamp_utc":"2026-10-21T12:00:00Z"},)"
            R"("phases":[{"name":"sampled","n":64,"reps":4,)"
            R"("wall_ms":0.10000000000000001,"total_ms":6.0999999999999996,)"
            R"("min_ms":0.10000000000000001,"mean_ms":1.5249999999999999,)"
            R"("median_ms":1.5,"p90_ms":2.7000000000000002,)"
            R"("stddev_ms":1.0848386976873565,"samples_ms":[2,1,3,)"
            R"(0.10000000000000001],"counters":{"engine.instances":12,)"
            R"("sinr.kernel_builds":3}},{"name":"one_shot","n":8,"reps":1,)"
            R"("wall_ms":0.33333333333333331,"total_ms":0.33333333333333331,)"
            R"("min_ms":0.33333333333333331,"mean_ms":0.33333333333333331,)"
            R"("median_ms":0.33333333333333331,"p90_ms":0.33333333333333331,)"
            R"("stddev_ms":0,"samples_ms":[0.33333333333333331],)"
            R"("counters":{}}],"scenarios":[1.5]})");
}

// Each record reads back what it wrote.
TEST(RecordBytesTest, ReadersInvertTheWriters) {
  const std::string sidecar = sweep::CheckpointToJson(FixedCheckpoint());
  const core::StatusOr<sweep::SweepCheckpoint> checkpoint =
      sweep::CheckpointFromJson(sidecar);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(sweep::CheckpointToJson(*checkpoint), sidecar);

  const core::StatusOr<obs::Provenance> provenance =
      obs::Provenance::FromJson(FixedProvenance().ToJson());
  ASSERT_TRUE(provenance.ok()) << provenance.status().ToString();
  EXPECT_EQ(*provenance, FixedProvenance());

  const core::StatusOr<obs::BenchReportData> report =
      obs::ParseBenchReport(FixedBenchReport());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->provenance, FixedProvenance());
  ASSERT_EQ(report->phases.size(), 2u);
  EXPECT_EQ(report->phases[0].n, 64);
  EXPECT_EQ(report->phases[0].stats.reps, 4);
  EXPECT_EQ(report->phases[0].counters.at("engine.instances"), 12);
  EXPECT_EQ(report->phases[1].stats.min_ms, 1.0 / 3.0);
}

// The committed BENCH v2 baselines the CI gate compares against load
// through the current parser.
TEST(RecordBytesTest, CommittedBaselinesLoad) {
  int loaded = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(DECAYLIB_SOURCE_DIR) + "/bench/baselines")) {
    if (entry.path().extension() != ".json") continue;
    const core::StatusOr<obs::BenchReportData> report =
        obs::LoadBenchReport(entry.path().string());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    ++loaded;
  }
  EXPECT_GE(loaded, 5);
}

// --- mutation fuzzing --------------------------------------------------

constexpr int kMutantsPerFormat = 5000;

// One mutant of `text`: one to four edits, each a byte flip, an insert
// (usually of a byte that means something to one of the formats), a delete
// of up to eight bytes, or a truncation.
std::string Mutate(std::string text, geom::Rng& rng) {
  static constexpr std::string_view kSyntax =
      "{}[]\":,.-+0123456789eEinfatrul#\\ \n";
  const int edits = rng.IntIn(1, 4);
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos =
        text.empty() ? 0 : static_cast<std::size_t>(rng.Below(text.size()));
    switch (rng.Below(8)) {
      case 0:
      case 1:
      case 2:  // flip: xor the byte with a nonzero mask
        if (!text.empty()) {
          text[pos] = static_cast<char>(text[pos] ^ (1 + rng.Below(255)));
        }
        break;
      case 3:
      case 4:  // insert
        text.insert(pos, 1,
                    rng.Chance(0.8)
                        ? kSyntax[rng.Below(kSyntax.size())]
                        : static_cast<char>(rng.Below(256)));
        break;
      case 5:
      case 6:  // delete
        if (!text.empty()) {
          text.erase(pos, 1 + rng.Below(std::min<std::size_t>(
                                  8, text.size() - pos)));
        }
        break;
      default:  // truncate
        text.resize(pos);
    }
  }
  return text;
}

// Counts of mutants a parser accepted and refused: a fuzz run that never
// reaches the schema layer (or never gets past it) tests less than it
// seems, so each test asserts both counts are nonzero.
struct Tally {
  int accepted = 0;
  int refused = 0;
  void Add(bool ok) { ++(ok ? accepted : refused); }
};

// Parsed JSON dumps without a DL_CHECK (every number is finite) and
// re-parses to the same text.
void ExpectStableDump(const io::Json& doc) {
  const std::string text = doc.Dump();
  const core::StatusOr<io::Json> back = io::Json::Parse(text);
  ASSERT_TRUE(back.ok()) << text;
  EXPECT_EQ(back->Dump(), text);
}

TEST(ParserFuzzTest, JsonParse) {
  const std::string seed = FixedBenchReport().Dump();
  geom::Rng rng(1);
  Tally tally;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    const core::StatusOr<io::Json> doc = io::Json::Parse(Mutate(seed, rng));
    tally.Add(doc.ok());
    if (doc.ok()) {
      ExpectStableDump(*doc);
    } else {
      EXPECT_EQ(doc.status().code(), core::StatusCode::kIoError);
    }
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.refused, 0);
}

TEST(ParserFuzzTest, CheckpointFromJson) {
  const std::string seed = sweep::CheckpointToJson(FixedCheckpoint());
  geom::Rng rng(2);
  Tally tally;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    const core::StatusOr<sweep::SweepCheckpoint> doc =
        sweep::CheckpointFromJson(Mutate(seed, rng));
    tally.Add(doc.ok());
    if (!doc.ok()) {
      EXPECT_EQ(doc.status().code(), core::StatusCode::kIoError);
      continue;
    }
    // An accepted sidecar holds no NaN and survives its own round trip.
    for (const sweep::CheckpointCell& cell : doc->cells) {
      EXPECT_GE(cell.attempts, 1);
      for (const auto& [name, m] : cell.aggregate) {
        EXPECT_FALSE(std::isnan(m.sum) || std::isnan(m.min) ||
                     std::isnan(m.max))
            << name;
        EXPECT_GE(m.count, 0);
      }
    }
    const std::string text = sweep::CheckpointToJson(*doc);
    const core::StatusOr<sweep::SweepCheckpoint> back =
        sweep::CheckpointFromJson(text);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(sweep::CheckpointToJson(*back), text);
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.refused, 0);
}

TEST(ParserFuzzTest, ParseBenchReportWithProvenance) {
  const std::string seed = FixedBenchReport().Dump();
  geom::Rng rng(3);
  Tally json;
  Tally schema;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    const core::StatusOr<io::Json> doc = io::Json::Parse(Mutate(seed, rng));
    json.Add(doc.ok());
    if (!doc.ok()) continue;
    const core::StatusOr<obs::BenchReportData> report =
        obs::ParseBenchReport(*doc);
    schema.Add(report.ok());
    if (!report.ok()) {
      EXPECT_EQ(report.status().code(), core::StatusCode::kInvalidArgument);
      EXPECT_EQ(report.status().message().rfind("BENCH v2: ", 0), 0u)
          << report.status().message();
      continue;
    }
    EXPECT_EQ(report->schema, 2);
    for (const obs::BenchPhaseRecord& phase : report->phases) {
      EXPECT_EQ(phase.stats.reps, static_cast<int>(phase.samples_ms.size()));
    }
  }
  EXPECT_GT(json.accepted, 0);
  EXPECT_GT(schema.accepted, 0);
  EXPECT_GT(schema.refused, 0);
}

TEST(ParserFuzzTest, ReadDecayCsv) {
  const std::string seed =
      "# decays\n0, 2.5, 3e2, 1\n2.5, 0, 1.25, 7\n300, 1.25, 0, 0.5\n"
      "1, 7, 0.5, 0\n";
  geom::Rng rng(4);
  Tally tally;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    std::istringstream in(Mutate(seed, rng));
    const core::StatusOr<core::DecaySpace> space = io::ReadDecayCsv(in);
    tally.Add(space.ok());
    if (!space.ok()) continue;
    for (int u = 0; u < space->size(); ++u) {
      for (int v = 0; v < space->size(); ++v) {
        const double d = (*space)(u, v);
        EXPECT_TRUE(u == v ? d == 0.0 : std::isfinite(d) && d > 0.0)
            << u << "," << v << ": " << d;
      }
    }
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.refused, 0);
}

TEST(ParserFuzzTest, ParseDoubleAndParseInt) {
  geom::Rng rng(5);
  Tally doubles;
  Tally ints;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    const std::string text = Mutate("-1.25e-3", rng);
    double value = 0.0;
    const bool ok = core::ParseDouble(text.c_str(), -1e3, 1e3, &value);
    doubles.Add(ok);
    if (ok) EXPECT_TRUE(value >= -1e3 && value <= 1e3) << text;

    const std::string digits = Mutate("-12345", rng);
    long long integer = 0;
    const bool int_ok = core::ParseInt(digits.c_str(), -99999, 99999, &integer);
    ints.Add(int_ok);
    if (int_ok) EXPECT_TRUE(integer >= -99999 && integer <= 99999) << digits;
  }
  EXPECT_GT(doubles.accepted, 0);
  EXPECT_GT(doubles.refused, 0);
  EXPECT_GT(ints.accepted, 0);
  EXPECT_GT(ints.refused, 0);
}

}  // namespace
}  // namespace decaylib
