#include "trajgen/csv_loader.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <tuple>
#include <vector>

namespace comove::trajgen {

namespace {

/// Splits one CSV line into exactly four trimmed fields; empty optional on
/// structural mismatch.
bool SplitFields(std::string_view line, std::string_view out[4]) {
  int field = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ',') {
      if (field >= 4) return false;
      std::string_view token = line.substr(start, i - start);
      while (!token.empty() && std::isspace(
                 static_cast<unsigned char>(token.front()))) {
        token.remove_prefix(1);
      }
      while (!token.empty() &&
             std::isspace(static_cast<unsigned char>(token.back()))) {
        token.remove_suffix(1);
      }
      out[field++] = token;
      start = i + 1;
    }
  }
  return field == 4;
}

bool ParseInt(std::string_view s, std::int64_t* out) {
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end && !s.empty();
}

bool ParseDouble(std::string_view s, double* out) {
  // std::from_chars for doubles is not universally available; strtod on a
  // bounded copy keeps this portable.
  if (s.empty() || s.size() > 63) return false;
  char buf[64];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* endptr = nullptr;
  *out = std::strtod(buf, &endptr);
  return endptr == buf + s.size();
}

}  // namespace

CsvLoadResult LoadCsvDataset(std::istream& in, const std::string& name,
                             Dataset* dataset) {
  CsvLoadResult result;
  struct Row {
    Timestamp time;
    TrajectoryId id;
    std::size_t line;
    Point location;
  };
  std::vector<Row> rows;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Skip blanks and comments.
    std::string_view view = line;
    while (!view.empty() &&
           std::isspace(static_cast<unsigned char>(view.front()))) {
      view.remove_prefix(1);
    }
    if (view.empty() || view.front() == '#') {
      ++result.skipped;
      continue;
    }
    std::string_view fields[4];
    if (!SplitFields(view, fields)) {
      result.error = "line " + std::to_string(line_number) +
                     ": expected 4 comma-separated fields";
      return result;
    }
    std::int64_t id = 0;
    std::int64_t time = 0;
    double x = 0.0;
    double y = 0.0;
    if (!ParseInt(fields[0], &id) || !ParseInt(fields[1], &time)) {
      // Tolerate one header line (non-numeric first fields).
      if (line_number == 1 + result.skipped) {
        ++result.skipped;
        continue;
      }
      result.error = "line " + std::to_string(line_number) +
                     ": id/time must be integers";
      return result;
    }
    if (!ParseDouble(fields[2], &x) || !ParseDouble(fields[3], &y) ||
        !std::isfinite(x) || !std::isfinite(y)) {
      result.error = "line " + std::to_string(line_number) +
                     ": x/y must be finite numbers";
      return result;
    }
    // kEndOfStreamTime closes the stream, so it is no valid record time.
    if (time < 0 || time >= kEndOfStreamTime) {
      result.error = "line " + std::to_string(line_number) +
                     ": discretised time must be in [0, " +
                     std::to_string(kEndOfStreamTime) + ")";
      return result;
    }
    rows.push_back(
        Row{static_cast<Timestamp>(time), id, line_number, Point{x, y}});
  }
  // The builder keeps the first report of an (id, time) and drops the
  // rest; a later report at another location is an error, an exact
  // repeat changes nothing.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.time, a.id, a.line) < std::tie(b.time, b.id, b.line);
  });
  for (std::size_t i = 1, first = 0; i < rows.size(); ++i) {
    const Row& kept = rows[first];
    if (rows[i].time != kept.time || rows[i].id != kept.id) {
      first = i;
    } else if (!(rows[i].location == kept.location)) {
      result.error = "line " + std::to_string(rows[i].line) + ": id " +
                     std::to_string(kept.id) + " at time " +
                     std::to_string(kept.time) +
                     " was already reported at another location on line " +
                     std::to_string(kept.line);
      return result;
    }
  }
  DatasetBuilder builder(name);
  for (const Row& row : rows) builder.Add(row.id, row.time, row.location);
  *dataset = builder.Finalize();
  result.ok = true;
  return result;
}

CsvLoadResult LoadCsvDatasetFile(const std::string& path,
                                 Dataset* dataset) {
  std::ifstream in(path);
  if (!in) {
    CsvLoadResult result;
    result.error = "cannot open " + path;
    return result;
  }
  // Dataset name = file basename.
  const std::size_t slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return LoadCsvDataset(in, name, dataset);
}

void WriteCsvDataset(const Dataset& dataset, std::ostream& out) {
  out << "# id,time,x,y\n";
  for (const GpsRecord& r : dataset.records) {
    out << r.id << ',' << r.time << ',' << r.location.x << ','
        << r.location.y << '\n';
  }
}

}  // namespace comove::trajgen
