// Reading and writing decay matrices as CSV.
//
// The whole point of decay spaces is that the matrix *is* the model
// (Sec. 2.2: "decay space can either represent the truth-on-the-ground, or
// its representation/approximation as data").  This module provides the data
// interchange: square CSV matrices of decays, with the diagonal written as 0
// and ignored on read.  Parsing is strict -- a malformed matrix fails at
// the boundary with a core::Status instead of producing a subtly wrong
// space: every cell goes through core::ParseDouble and must be a finite
// number (the ignored diagonal too, so a "nan" there is an error), and
// every off-diagonal cell must be positive.
// Besides matrices, the module writes generic CSV tables (header + string
// rows, RFC-4180-style quoting) -- the export path of the sweep engine's
// per-cell results.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/decay_space.h"
#include "core/status.h"

namespace decaylib::io {

// Parses a square CSV matrix of decays.  Accepts comments (# ...), blank
// lines, and scientific notation.  Diagonal entries must be finite numbers
// but are ignored; off-diagonal entries must be positive and finite.
// kInvalidArgument names the offending line, row or entry; the file form
// adds kIoError for a file it cannot open.
core::StatusOr<core::DecaySpace> ReadDecayCsv(std::istream& in);
core::StatusOr<core::DecaySpace> ReadDecayCsvFile(const std::string& path);

// Writes the matrix with full round-trip precision (%.17g).
void WriteDecayCsv(const core::DecaySpace& space, std::ostream& out);
bool WriteDecayCsvFile(const core::DecaySpace& space, const std::string& path);

// One CSV cell, quoted per RFC 4180 when it contains a comma, a double
// quote, or a line break (embedded quotes are doubled).
std::string CsvEscape(const std::string& cell);

// Writes a header row followed by data rows.  Rows may be ragged; each is
// emitted as-is (no padding to the header width).
void WriteCsvTable(std::span<const std::string> header,
                   std::span<const std::vector<std::string>> rows,
                   std::ostream& out);
bool WriteCsvTableFile(std::span<const std::string> header,
                       std::span<const std::vector<std::string>> rows,
                       const std::string& path);

}  // namespace decaylib::io
