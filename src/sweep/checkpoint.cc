#include "sweep/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/parse.h"
#include "io/json.h"

namespace decaylib::sweep {

namespace {

using core::Status;
using core::StatusOr;
using io::Json;

std::string Fmt17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// FNV-1a, 64-bit: stable across platforms and trivially reimplementable if
// the sidecar format is ever read by another tool.
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ULL;

  void Bytes(const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state ^= p[i];
      state *= 0x100000001b3ULL;
    }
  }
  void Str(const std::string& s) {
    Bytes(s.data(), s.size());
    Bytes("\x1f", 1);  // field separator so "ab"+"c" != "a"+"bc"
  }
  void Int(long long v) { Str(std::to_string(v)); }
  void Dbl(double v) { Str(Fmt17(v)); }
};

// A cell's fields, in sidecar order, with their lower bounds (a saved cell
// ran at least once); CheckpointToJson and CheckpointFromJson both walk
// this list and the next.
constexpr struct {
  const char* key;
  int CheckpointCell::*member;
  long long lo;
} kCellFields[] = {{"index", &CheckpointCell::index, 0},
                   {"attempts", &CheckpointCell::attempts, 1},
                   {"instances", &CheckpointCell::instances, 0}};

// An aggregate entry's doubles, in sidecar order between "name" and
// "count".  They travel as %.17g strings (see the header).
constexpr struct {
  const char* key;
  double engine::MetricSummary::*member;
} kSummaryFields[] = {{"sum", &engine::MetricSummary::sum},
                      {"min", &engine::MetricSummary::min},
                      {"max", &engine::MetricSummary::max}};

// A %.17g string member: any double or infinity.  NaN never belongs to a
// healthy cell.
Status ReadExact(const Json& object, const char* key, double* out) {
  std::string text;
  if (Status s = object.Read(key, &text); !s.ok()) return s;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (core::ParseDouble(text.c_str(), -kInf, kInf, out)) return Status::Ok();
  return Status::IoError("field '" + std::string(key) +
                         "': not a number or infinity: '" + text + "'");
}

// Errors carry no prefix; CheckpointFromJson adds "checkpoint: ".
Status ReadCheckpoint(const std::string& text, SweepCheckpoint& out) {
  StatusOr<Json> parsed = Json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  const Json& doc = *parsed;
  Status status = doc.Read("sweep", &out.sweep);
  status.Update(doc.Read("spec_hash", &out.spec_hash));
  status.Update(doc.Read("grid", &out.grid, 0));
  const StatusOr<const Json*> cells = doc.Get("cells", Json::Kind::kArray);
  status.Update(cells.status());
  if (!status.ok()) return status;
  for (const Json& c : (*cells)->Items()) {
    CheckpointCell& cell = out.cells.emplace_back();
    for (const auto& [key, member, lo] : kCellFields) {
      status.Update(c.Read(key, &(cell.*member), lo));
    }
    const StatusOr<const Json*> aggregate =
        c.Get("aggregate", Json::Kind::kArray);
    status.Update(aggregate.status());
    if (!status.ok()) return status;
    for (const Json& e : (*aggregate)->Items()) {
      auto& [name, m] = cell.aggregate.emplace_back();
      status.Update(e.Read("name", &name));
      for (const auto& [key, member] : kSummaryFields) {
        status.Update(ReadExact(e, key, &(m.*member)));
      }
      status.Update(e.Read("count", &m.count, 0));
      if (!status.ok()) return status;
    }
  }
  return status;
}

}  // namespace

std::string SweepSpecHash(const SweepSpec& spec) {
  Fnv1a h;
  h.Str(spec.name);
  for (const engine::ScenarioField& field : engine::ScenarioFields()) {
    h.Str(engine::FieldText(field, spec.base));
  }
  h.Int(static_cast<long long>(spec.axes.size()));
  for (const SweepAxis& axis : spec.axes) {
    h.Str(axis.field);
    h.Int(static_cast<long long>(axis.values.size()));
    for (const double v : axis.values) h.Dbl(v);
  }
  h.Int(static_cast<long long>(spec.tasks.size()));
  for (const engine::TaskKind task : spec.tasks) {
    h.Int(static_cast<long long>(task));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h.state));
  return buf;
}

std::string CheckpointToJson(const SweepCheckpoint& checkpoint) {
  Json doc = Json::Object();
  doc.Put("sweep", checkpoint.sweep);
  doc.Put("spec_hash", checkpoint.spec_hash);
  doc.Put("grid", checkpoint.grid);
  Json cells = Json::Array();
  for (const CheckpointCell& cell : checkpoint.cells) {
    Json c = Json::Object();
    for (const auto& [key, member, lo] : kCellFields) c.Put(key, cell.*member);
    Json aggregate = Json::Array();
    for (const auto& [name, m] : cell.aggregate) {
      Json entry = Json::Object();
      entry.Put("name", name);
      for (const auto& [key, member] : kSummaryFields) {
        entry.Put(key, Fmt17(m.*member));
      }
      entry.Put("count", m.count);
      aggregate.Append(std::move(entry));
    }
    c.Set("aggregate", std::move(aggregate));
    cells.Append(std::move(c));
  }
  doc.Set("cells", std::move(cells));
  return doc.Dump();
}

StatusOr<SweepCheckpoint> CheckpointFromJson(const std::string& text) {
  SweepCheckpoint out;
  if (Status s = ReadCheckpoint(text, out); !s.ok()) {
    return Status::IoError("checkpoint: " + s.message());
  }
  return out;
}

Status SaveCheckpoint(const std::string& path,
                      const SweepCheckpoint& checkpoint) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp + " for writing");
    out << CheckpointToJson(checkpoint) << "\n";
    out.flush();
    if (!out) return Status::IoError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " over " + path);
  }
  return Status::Ok();
}

StatusOr<SweepCheckpoint> LoadCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return CheckpointFromJson(buffer.str());
}

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<bool>(in);
}

}  // namespace decaylib::sweep
