#include "sweep/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

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
  doc.Set("sweep", Json::String(checkpoint.sweep));
  doc.Set("spec_hash", Json::String(checkpoint.spec_hash));
  doc.Set("grid", Json::Number(static_cast<double>(checkpoint.grid)));
  Json cells = Json::Array();
  for (const CheckpointCell& cell : checkpoint.cells) {
    Json c = Json::Object();
    c.Set("index", Json::Number(cell.index));
    c.Set("attempts", Json::Number(cell.attempts));
    c.Set("instances", Json::Number(cell.instances));
    Json aggregate = Json::Array();
    for (const auto& [name, m] : cell.aggregate) {
      Json entry = Json::Object();
      entry.Set("name", Json::String(name));
      // %.17g strings, not JSON numbers: strtod restores every double
      // bit-exactly, including the +/-inf sentinels of count-0 summaries.
      entry.Set("sum", Json::String(Fmt17(m.sum)));
      entry.Set("min", Json::String(Fmt17(m.min)));
      entry.Set("max", Json::String(Fmt17(m.max)));
      entry.Set("count", Json::Number(static_cast<double>(m.count)));
      aggregate.Append(std::move(entry));
    }
    c.Set("aggregate", std::move(aggregate));
    cells.Append(std::move(c));
  }
  doc.Set("cells", std::move(cells));
  return doc.Dump();
}

namespace {

constexpr long long kMaxInt = std::numeric_limits<int>::max();

Status FieldError(const std::string& what) {
  return Status::IoError("checkpoint: " + what);
}

StatusOr<double> ReadDouble17(const Json& obj, const std::string& key) {
  const Json* v = obj.Find(key);
  if (v == nullptr || v->kind() != Json::Kind::kString) {
    return FieldError("missing string field '" + key + "'");
  }
  const std::string& s = v->AsString();
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return FieldError("unparseable double '" + s + "' in '" + key + "'");
  }
  return value;
}

StatusOr<long long> ReadInteger(
    const Json& obj, const std::string& key, long long lo,
    long long hi = std::numeric_limits<long long>::max()) {
  const Json* v = obj.Find(key);
  if (v == nullptr) return FieldError("missing number field '" + key + "'");
  StatusOr<long long> value = v->AsInteger(lo, hi);
  if (!value.ok()) {
    return FieldError("field '" + key + "': " + value.status().message());
  }
  return value;
}

StatusOr<std::string> ReadString(const Json& obj, const std::string& key) {
  const Json* v = obj.Find(key);
  if (v == nullptr || v->kind() != Json::Kind::kString) {
    return FieldError("missing string field '" + key + "'");
  }
  return v->AsString();
}

}  // namespace

StatusOr<SweepCheckpoint> CheckpointFromJson(const std::string& text) {
  StatusOr<Json> parsed = Json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  const Json& doc = *parsed;
  if (!doc.is_object()) return FieldError("document is not an object");

  SweepCheckpoint out;
  for (const auto& [key, field] : {std::pair{"sweep", &out.sweep},
                                   std::pair{"spec_hash", &out.spec_hash}}) {
    StatusOr<std::string> s = ReadString(doc, key);
    if (!s.ok()) return s.status();
    *field = *s;
  }
  const StatusOr<long long> grid = ReadInteger(doc, "grid", 0);
  if (!grid.ok()) return grid.status();
  out.grid = *grid;
  const Json* cells = doc.Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    return FieldError("missing 'cells' array");
  }
  for (const Json& c : cells->Items()) {
    if (!c.is_object()) return FieldError("cell is not an object");
    CheckpointCell cell;
    // Saved cells completed, so each took at least one attempt.
    const struct {
      const char* key;
      long long lo;
      int* out;
    } int_fields[] = {{"index", 0, &cell.index},
                      {"attempts", 1, &cell.attempts},
                      {"instances", 0, &cell.instances}};
    for (const auto& field : int_fields) {
      StatusOr<long long> v = ReadInteger(c, field.key, field.lo, kMaxInt);
      if (!v.ok()) return v.status();
      *field.out = static_cast<int>(*v);
    }
    const Json* aggregate = c.Find("aggregate");
    if (aggregate == nullptr || !aggregate->is_array()) {
      return FieldError("cell missing 'aggregate' array");
    }
    for (const Json& e : aggregate->Items()) {
      if (!e.is_object()) return FieldError("aggregate entry not an object");
      std::string name;
      engine::MetricSummary m;
      if (StatusOr<std::string> s = ReadString(e, "name"); s.ok()) {
        name = *s;
      } else {
        return s.status();
      }
      for (const auto& [key, field] :
           {std::pair{"sum", &m.sum}, std::pair{"min", &m.min},
            std::pair{"max", &m.max}}) {
        StatusOr<double> v = ReadDouble17(e, key);
        if (!v.ok()) return v.status();
        *field = *v;
      }
      const StatusOr<long long> count = ReadInteger(e, "count", 0);
      if (!count.ok()) return count.status();
      m.count = *count;
      cell.aggregate.emplace_back(std::move(name), m);
    }
    out.cells.push_back(std::move(cell));
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
