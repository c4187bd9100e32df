// Flag parsing shared by the CLI tools and benches: strict numeric flags
// (core/parse.h: "--threads x", "--threads -2" or "--rel nan" are usage
// errors naming the flag, never a silent default), string flags, and
// spec-field flags bound through the engine's field table
// (engine::ScenarioFields()).
#pragma once

#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/parse.h"
#include "engine/scenario.h"

namespace decaylib::tools {

// Parses the value of an int flag, printing a diagnostic on failure.
inline bool ParseIntFlag(const char* flag, const char* text,
                         long long min_value, long long max_value, int* out) {
  long long value = 0;
  if (!core::ParseInt(text, min_value, max_value, &value)) {
    std::fprintf(stderr, "%s: expected an integer in [%lld, %lld], got '%s'\n",
                 flag, min_value, max_value, text == nullptr ? "" : text);
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

// Parses the value of a double flag, printing a diagnostic on failure.
inline bool ParseDoubleFlag(const char* flag, const char* text,
                            double min_value, double max_value, double* out) {
  double value = 0.0;
  if (!core::ParseDouble(text, min_value, max_value, &value)) {
    std::fprintf(stderr, "%s: expected a number in [%g, %g], got '%s'\n",
                 flag, min_value, max_value, text == nullptr ? "" : text);
    return false;
  }
  *out = value;
  return true;
}

// Matches a string-valued flag at argv[*index] in either of its two
// spellings: "--flag value" (value in the next argv slot; *index advances
// past it) or "--flag=value".  Returns false when argv[*index] is not this
// flag at all -- the caller's flag loop falls through to its next match.
// Returns true when the flag matched; a missing or empty value prints a
// diagnostic and clears *ok, so "--trace" at the end of the command line or
// "--trace=" is a usage error, not a silent no-op.
inline bool MatchStringFlag(const char* flag, int argc, char* const* argv,
                            int* index, std::string* out, bool* ok) {
  const char* arg = argv[*index];
  const std::size_t flag_len = std::strlen(flag);
  if (std::strncmp(arg, flag, flag_len) != 0) return false;
  if (arg[flag_len] == '=') {
    *out = arg + flag_len + 1;
    if (out->empty()) {
      std::fprintf(stderr, "%s: expected a non-empty value\n", flag);
      *ok = false;
    }
    return true;
  }
  if (arg[flag_len] != '\0') return false;  // a longer flag, e.g. --tracer
  if (*index + 1 >= argc) {
    std::fprintf(stderr, "%s: expected a value\n", flag);
    *ok = false;
    return true;
  }
  *out = argv[++*index];
  if (out->empty()) {
    std::fprintf(stderr, "%s: expected a non-empty value\n", flag);
    *ok = false;
  }
  return true;
}

// One spec-field binding from the command line: a tool's own --FIELD VALUE
// flag (role kFlag) or scenario_runner's --set FIELD=VALUE (role kSet).
struct FieldBinding {
  engine::FieldRole role;
  std::string field;
  std::string text;
};

// On "--FIELD VALUE" for one of the tool's own field flags, records the
// binding, moves *index past the value and returns true.
inline bool MatchFieldFlag(std::span<const char* const> fields, int argc,
                           char* const* argv, int* index,
                           std::vector<FieldBinding>* out) {
  for (const char* field : fields) {
    if (*index + 1 < argc && argv[*index] == "--" + std::string(field)) {
      out->push_back({engine::kFlag, field, argv[++*index]});
      return true;
    }
  }
  return false;
}

// Writes a binding through its row of the field table; on error prints the
// row's message after the flag as typed, leaving the spec untouched.
inline bool BindField(engine::ScenarioSpec& spec, const FieldBinding& binding) {
  const engine::ScenarioField* field = engine::FindScenarioField(binding.field);
  const core::Status status =
      field == nullptr || !field->Has(binding.role)
          ? core::Status::InvalidArgument("not a settable field")
          : engine::WriteFieldText(spec, *field, binding.text);
  if (status.ok()) return true;
  std::fprintf(stderr, binding.role == engine::kSet ? "--set %s=%s: %s\n"
                                                    : "--%s %s: %s\n",
               binding.field.c_str(), binding.text.c_str(),
               status.message().c_str());
  return false;
}

// Prints "<label>: NAME NAME ..." over the field table's rows with `role`.
inline void PrintFields(std::FILE* out, const char* label,
                        engine::FieldRole role) {
  std::fprintf(out, "%s:", label);
  for (const engine::ScenarioField& field : engine::ScenarioFields()) {
    if (field.Has(role)) std::fprintf(out, " %s", field.name);
  }
  std::fprintf(out, "\n");
}

}  // namespace decaylib::tools
