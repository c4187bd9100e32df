// Recoverable-error layer: core::Status / core::StatusOr<T>.
//
// The library distinguishes two failure families (docs/robustness.md):
//   * programmer errors -- API misuse that violates a stated precondition
//     (negative ids, unprepared caches, arena spans that do not cover the
//     worker pool).  These stay DL_CHECK aborts (core/check.h): misuse is
//     not an expected error path and must fail loudly at the call site.
//   * runtime input and execution errors -- bad scenario/sweep/CLI input,
//     injected or genuine execution faults, numeric pathologies in
//     aggregates, unreadable checkpoint files.  These are *expected* in a
//     long-lived system and must not cost a process full of warm kernel
//     state; they travel as core::Status values (or as core::StatusError
//     where an error must cross stack frames that cannot return one, e.g.
//     out of a worker pool), and the sweep runner converts them into
//     per-cell failures instead of aborts.
//
// Status is a small value type: an error code plus a human-readable
// message.  StatusOr<T> carries either a value or the Status explaining its
// absence.  Both are deliberately minimal -- no payloads, no stack traces --
// so they stay cheap enough for per-cell use inside sweeps.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/check.h"

namespace decaylib::core {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     // runtime input rejected by validation
  kFailedPrecondition,  // environment not in the required state (e.g. a
                        // checkpoint for a different sweep spec)
  kNumericError,        // non-finite values where finite ones are required
  kIoError,             // file read/write/parse failures
  kInternal,            // execution failure (a task threw, a fault tripped)
};

// Canonical lower-case name of a code ("ok", "invalid_argument", ...).
const char* StatusCodeName(StatusCode code);

class Status {
 public:
  // Default: OK.
  Status() = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status NumericError(std::string message) {
    return Status(StatusCode::kNumericError, std::move(message));
  }
  static Status IoError(std::string message) {
    return Status(StatusCode::kIoError, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  // "<code name>: <message>" ("ok" when OK).
  std::string ToString() const;

  // Keeps the first error: adopts `other` only while this is OK, so a
  // parser can run a list of reads and report the first that failed.
  void Update(const Status& other) {
    if (ok()) *this = other;
  }

  friend bool operator==(const Status&, const Status&) = default;

 private:
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Exception carrier for a Status that must unwind through frames which
// cannot return one (worker pools, constructors).  what() is the
// Status::ToString() text.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}

  const Status& status() const noexcept { return status_; }

 private:
  Status status_;
};

// Throws StatusError when `status` is not OK; no-op otherwise.
inline void ThrowIfError(const Status& status) {
  if (!status.ok()) throw StatusError(status);
}

// Either a T or the Status explaining why there is none.  Accessing the
// value of a failed StatusOr is a programmer error (DL_CHECK).
template <typename T>
class StatusOr {
 public:
  // Implicit, like absl: `return Status::IoError(...)` and `return value`
  // both work from a StatusOr-returning function.
  StatusOr(Status status) : status_(std::move(status)) {
    DL_CHECK(!status_.ok(), "StatusOr needs a non-OK status or a value");
  }
  StatusOr(T value) : value_(std::move(value)) {}

  bool ok() const noexcept { return value_.has_value(); }
  const Status& status() const noexcept { return status_; }

  const T& value() const {
    DL_CHECK(ok(), "StatusOr::value on a failed result");
    return *value_;
  }
  T& value() {
    DL_CHECK(ok(), "StatusOr::value on a failed result");
    return *value_;
  }
  const T& operator*() const { return value(); }
  T& operator*() { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // OK iff value_ engaged
  std::optional<T> value_;
};

}  // namespace decaylib::core
