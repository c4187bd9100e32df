#include "io/csv.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace decaylib::io {

namespace {

std::string Trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

ParseResult ReadDecayCsv(std::istream& in) {
  std::vector<std::vector<double>> rows;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    // getline drops an empty final field, so a trailing comma never reaches
    // the per-cell check below.
    if (trimmed.back() == ',') {
      return {std::nullopt,
              "line " + std::to_string(line_number) + ": empty cell"};
    }
    std::vector<double> row;
    std::stringstream ss(trimmed);
    std::string cell;
    while (std::getline(ss, cell, ',')) {
      const std::string value = Trim(cell);
      if (value.empty()) {
        return {std::nullopt, "line " + std::to_string(line_number) +
                                  ": empty cell"};
      }
      char* end = nullptr;
      const double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return {std::nullopt, "line " + std::to_string(line_number) +
                                  ": unparsable cell '" + value + "'"};
      }
      row.push_back(parsed);
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return {std::nullopt, "no data rows"};
  const std::size_t n = rows.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (rows[i].size() != n) {
      return {std::nullopt,
              "matrix is not square: row " + std::to_string(i + 1) + " has " +
                  std::to_string(rows[i].size()) + " cells, expected " +
                  std::to_string(n)};
    }
  }
  core::DecaySpace space(static_cast<int>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;  // diagonal ignored
      const double v = rows[i][j];
      if (!(v > 0.0) || !std::isfinite(v)) {
        return {std::nullopt,
                "entry (" + std::to_string(i) + "," + std::to_string(j) +
                    ") must be a positive finite decay, got " +
                    std::to_string(v)};
      }
      space.Set(static_cast<int>(i), static_cast<int>(j), v);
    }
  }
  return {std::move(space), ""};
}

ParseResult ReadDecayCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {std::nullopt, "cannot open '" + path + "'"};
  return ReadDecayCsv(in);
}

void WriteDecayCsv(const core::DecaySpace& space, std::ostream& out) {
  const int n = space.size();
  char buf[64];
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      std::snprintf(buf, sizeof(buf), "%.17g", space(i, j));
      out << buf << (j + 1 < n ? "," : "\n");
    }
  }
}

bool WriteDecayCsvFile(const core::DecaySpace& space,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WriteDecayCsv(space, out);
  return out.good();
}

std::string CsvEscape(const std::string& cell) {
  if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void WriteCsvTable(std::span<const std::string> header,
                   std::span<const std::vector<std::string>> rows,
                   std::ostream& out) {
  const auto write_row = [&out](std::span<const std::string> row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << CsvEscape(row[c]) << (c + 1 < row.size() ? "," : "");
    }
    out << "\n";
  };
  write_row(header);
  for (const std::vector<std::string>& row : rows) write_row(row);
}

bool WriteCsvTableFile(std::span<const std::string> header,
                       std::span<const std::vector<std::string>> rows,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WriteCsvTable(header, rows, out);
  return out.good();
}

}  // namespace decaylib::io
