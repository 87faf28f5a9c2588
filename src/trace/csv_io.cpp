#include "trace/csv_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace gs::trace {

namespace {

/// Parse the value column of one CSV row (last column wins).
double parse_row(const std::string& line, char delimiter, std::size_t lineno) {
  const auto pos = line.rfind(delimiter);
  const std::string field =
      pos == std::string::npos ? line : line.substr(pos + 1);
  try {
    std::size_t consumed = 0;
    const double v = std::stod(field, &consumed);
    // Allow trailing whitespace / CR only.
    for (std::size_t i = consumed; i < field.size(); ++i) {
      GS_REQUIRE(std::isspace(static_cast<unsigned char>(field[i])),
                 "trailing garbage in CSV value at line " +
                     std::to_string(lineno));
    }
    // stod accepts "nan" and "inf"; either would pass through the peak
    // normalization below as a silent 0 or poison every sample.
    GS_REQUIRE(std::isfinite(v),
               "non-finite CSV value at line " + std::to_string(lineno));
    return v;
  } catch (const std::invalid_argument&) {
    GS_REQUIRE(false,
               "malformed CSV value at line " + std::to_string(lineno));
  } catch (const std::out_of_range&) {
    GS_REQUIRE(false,
               "out-of-range CSV value at line " + std::to_string(lineno));
  }
  return 0.0;
}

}  // namespace

SolarTrace load_solar_csv(std::istream& in, const SolarCsvOptions& opts) {
  std::vector<double> values;
  std::string line;
  std::size_t lineno = 0;
  bool skipped_header = !opts.has_header;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip CR from CRLF files.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (!skipped_header) {
      skipped_header = true;
      continue;
    }
    values.push_back(parse_row(line, opts.delimiter, lineno));
  }
  GS_REQUIRE(!values.empty(), "CSV trace contains no samples");

  const double peak = *std::max_element(values.begin(), values.end());
  if (peak >= opts.raw_threshold) {
    // Raw irradiance: normalize to the observed peak.
    for (auto& v : values) v = std::max(0.0, v) / peak;
  } else {
    for (auto& v : values) {
      GS_REQUIRE(v >= 0.0 && v <= 1.0,
                 "normalized CSV sample out of [0,1]");
    }
  }
  return SolarTrace(std::move(values), opts.sample_period);
}

SolarTrace load_solar_csv_file(const std::string& path,
                               const SolarCsvOptions& opts) {
  std::ifstream in(path);
  GS_REQUIRE(in.good(), "cannot open CSV trace file: " + path);
  return load_solar_csv(in, opts);
}

void save_solar_csv(std::ostream& out, const SolarTrace& trace) {
  const double period = trace.period().value();
  for (std::size_t i = 0; i < trace.samples().size(); ++i) {
    out << double(i) * period << ',' << trace.samples()[i] << '\n';
  }
}

void save_solar_csv_file(const std::string& path, const SolarTrace& trace) {
  std::ofstream out(path);
  GS_REQUIRE(out.good(), "cannot open CSV trace file for writing: " + path);
  save_solar_csv(out, trace);
}

}  // namespace gs::trace
