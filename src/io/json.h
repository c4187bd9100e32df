// Minimal JSON document model: parse, navigate, serialise.
//
// decaylib persists three records as JSON -- the sweep checkpoint sidecar
// (sweep/checkpoint.h), the BENCH v2 timing record and its provenance
// (obs/bench_harness.h) -- and reads them back as foreign input, possibly
// truncated by the very crash a checkpoint is there to survive.  This
// module provides the round trip: a small value type over the six JSON
// kinds, a strict recursive-descent parser that returns core::Status
// diagnostics (with byte offsets) instead of aborting, a writer whose
// number format (%.17g) round-trips doubles bit-exactly through the
// parser, and one checked member read (Get, typed as Read) with its write
// half (Put).  Each record lists its fields once; its writer walks that
// list with Put and its reader with Read.
//
// Deliberate limits, fine for sidecar-sized documents: numbers are finite
// doubles parsed by core::ParseDouble (integers above 2^53 lose
// precision), object keys keep insertion order and may repeat (lookup
// returns the first), nesting depth is capped, and non-finite numbers are
// *not* emitted by Dump -- callers that need inf round trips store them as
// strings (checkpoint.cc does, for empty MetricSummary min/max sentinels).
#pragma once

#include <algorithm>
#include <limits>
#include <string>
#include <type_traits>
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

  // The checked member read for foreign input: the first member named
  // `key` if it is of kind `want`, else an IoError naming the key (a
  // non-object has no members).
  core::StatusOr<const Json*> Get(const std::string& key, Kind want) const;

  // Get typed for a record field: a std::string, bool, double or integer
  // from a string, bool or number member; an integer passes
  // AsInteger(lo, its type's max), so narrowing it is defined.  On failure
  // *out keeps its value.
  template <typename T>
  core::Status Read(const std::string& key, T* out,
                    long long lo = std::numeric_limits<long long>::min()) const;

  // Read's write half (object kind required).
  template <typename T>
  void Put(std::string key, T value);

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

template <typename T>
core::Status Json::Read(const std::string& key, T* out, long long lo) const {
  constexpr Kind kWant = std::is_same_v<T, bool>    ? Kind::kBool
                         : std::is_arithmetic_v<T> ? Kind::kNumber
                                                   : Kind::kString;
  const core::StatusOr<const Json*> member = Get(key, kWant);
  if (!member.ok()) return member.status();
  const Json& value = **member;
  if constexpr (kWant == Kind::kBool) {
    *out = value.bool_;
  } else if constexpr (std::is_integral_v<T>) {
    using Limits = std::numeric_limits<T>;
    const core::StatusOr<long long> integer =
        value.AsInteger(std::max<long long>(lo, Limits::min()), Limits::max());
    if (!integer.ok()) {
      return core::Status::IoError("field '" + key +
                                   "': " + integer.status().message());
    }
    *out = static_cast<T>(*integer);
  } else if constexpr (kWant == Kind::kNumber) {
    *out = value.number_;
  } else {
    *out = value.string_;
  }
  return core::Status::Ok();
}

template <typename T>
void Json::Put(std::string key, T value) {
  if constexpr (std::is_same_v<T, bool>) {
    Set(std::move(key), Bool(value));
  } else if constexpr (std::is_arithmetic_v<T>) {
    Set(std::move(key), Number(static_cast<double>(value)));
  } else {
    Set(std::move(key), String(std::move(value)));
  }
}

}  // namespace decaylib::io
