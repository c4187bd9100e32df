// Minimal JSON document model: parse, navigate, serialise.
//
// The checkpoint/resume layer of the sweep runner (sweep/checkpoint.h)
// needs to read back the JSON sidecars it writes; the existing report
// writers (engine/report.cc, sweep/sweep_report.cc) only ever emit.  This
// module provides the round trip: a small value type over the six JSON
// kinds, a strict recursive-descent parser that returns core::Status
// diagnostics (with character offsets) instead of aborting on malformed
// input -- a checkpoint file is runtime input, possibly truncated by the
// very crash it is there to survive -- and a writer whose number format
// (%.17g) round-trips doubles bit-exactly through the parser.
//
// Deliberate limits, fine for sidecar-sized documents: numbers are doubles
// (integers above 2^53 lose precision), object keys keep insertion order
// and may repeat (lookup returns the first), nesting depth is capped, and
// non-finite numbers are *not* emitted by Dump -- callers that need
// inf/nan round trips store them as strings (checkpoint.cc does, for empty
// MetricSummary min/max sentinels).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/status.h"

namespace decaylib::io {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, Json>;

  Json() = default;  // null
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Number(double v);
  static Json String(std::string s);
  static Json Array();
  static Json Object();

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }

  // Typed accessors; calling one on the wrong kind is a programmer error
  // (DL_CHECK) -- validate with kind() first when handling foreign input.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<Json>& Items() const;    // array elements
  const std::vector<Member>& Members() const;  // object members, in order
  // A number that is an integer in [lo, hi], so casting it to a narrower
  // integer type is defined; any other value (another kind, a fraction,
  // out of range, inf) is an IoError, not a programmer error.
  core::StatusOr<long long> AsInteger(long long lo, long long hi) const;

  // Array/object builders.
  void Append(Json value);                       // array
  void Set(std::string key, Json value);         // object

  // First member named `key`, or nullptr (object kind required).
  const Json* Find(const std::string& key) const;

  // Strict parse of a complete document (trailing junk is an error).
  static core::StatusOr<Json> Parse(const std::string& text);

  // Compact serialisation ("%.17g" numbers, escaped strings).  Non-finite
  // numbers are a programmer error (store them as strings instead).
  std::string Dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<Member> members_;
};

// Escapes a string for embedding inside a JSON string literal (quotes,
// backslashes, control characters; no surrounding quotes added).
std::string JsonEscape(const std::string& s);

}  // namespace decaylib::io
