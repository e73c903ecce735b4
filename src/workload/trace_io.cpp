#include "workload/trace_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "common/format.hpp"

namespace hero::wl {
namespace {

constexpr const char* kFieldNames[5] = {"arrival_s", "input_tokens",
                                        "output_tokens", "session_id",
                                        "prefix_tokens"};
/// Exclusive upper bound on token counts and session ids (2^32).
constexpr double kCountLimit = 4294967296.0;

}  // namespace

Trace read_trace_csv(std::istream& in) {
  Trace trace;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Trim whitespace.
    const auto begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const auto end = line.find_last_not_of(" \t\r");
    const std::string body = line.substr(begin, end - begin + 1);
    if (body.empty() || body[0] == '#') continue;
    // Skip a header row.
    if (body.find("arrival") != std::string::npos) continue;

    std::istringstream row(body);
    std::string cell;
    double fields[5] = {0, 0, 0, 0, 0};
    int parsed = 0;
    while (std::getline(row, cell, ',')) {
      // Legacy rows carry 3 fields; session-annotated rows carry 5
      // (session_id, prefix_tokens).
      if (parsed == 5) {
        throw std::runtime_error(
            strfmt("trace csv line {}: expected 3 or 5 fields", line_no));
      }
      // The whole cell must be the number: std::stod stops at the first
      // character it cannot use, so check that only blanks follow.
      std::size_t used = 0;
      try {
        fields[parsed] = std::stod(cell, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used == 0 ||
          cell.find_first_not_of(" \t", used) != std::string::npos) {
        throw std::runtime_error(
            strfmt("trace csv line {}: bad number '{}'", line_no, cell));
      }
      ++parsed;
    }
    if (parsed != 3 && parsed != 5) {
      throw std::runtime_error(
          strfmt("trace csv line {}: expected 3 or 5 fields", line_no));
    }
    for (int f = 0; f < parsed; ++f) {
      if (!std::isfinite(fields[f])) {
        throw std::runtime_error(
            strfmt("trace csv line {}: non-finite value", line_no));
      }
      if (fields[f] < 0) {
        throw std::runtime_error(
            strfmt("trace csv line {}: negative value", line_no));
      }
      // Every field after the arrival time is a token count or a session
      // id: a whole number that the integer casts below hold exactly.
      if (f > 0 && (fields[f] != std::floor(fields[f]) ||
                    fields[f] >= kCountLimit)) {
        throw std::runtime_error(
            strfmt("trace csv line {}: {} must be an integer below 2^32",
                   line_no, kFieldNames[f]));
      }
    }
    Request r;
    r.arrival = fields[0];
    r.input_tokens = static_cast<std::size_t>(fields[1]);
    r.output_tokens = static_cast<std::size_t>(fields[2]);
    r.session_id = static_cast<std::uint64_t>(fields[3]);
    r.prefix_tokens = static_cast<std::size_t>(fields[4]);
    if (r.prefix_tokens >= r.input_tokens && r.prefix_tokens != 0) {
      throw std::runtime_error(
          strfmt("trace csv line {}: prefix_tokens >= input_tokens",
                 line_no));
    }
    trace.push_back(r);
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival < b.arrival;
                   });
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i].id = i;
  return trace;
}

Trace load_trace_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read trace file: " + path);
  return read_trace_csv(in);
}

void write_trace_csv(std::ostream& out, const Trace& trace) {
  // Sessionless traces keep the legacy 3-column format byte-for-byte;
  // session columns appear only when some request carries one.
  const bool sessions =
      std::any_of(trace.begin(), trace.end(),
                  [](const Request& r) { return r.session_id != 0; });
  out << std::setprecision(17);  // lossless double round-trip
  out << "# HeroServe request trace\n";
  if (sessions) {
    out << "arrival_s,input_tokens,output_tokens,session_id,prefix_tokens\n";
  } else {
    out << "arrival_s,input_tokens,output_tokens\n";
  }
  for (const Request& r : trace) {
    out << r.arrival << ',' << r.input_tokens << ',' << r.output_tokens;
    if (sessions) out << ',' << r.session_id << ',' << r.prefix_tokens;
    out << '\n';
  }
}

void save_trace_csv(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file: " + path);
  write_trace_csv(out, trace);
}

Trace rescale_rate(Trace trace, Rate rate) {
  if (!(rate > 0) || !std::isfinite(raw(rate))) {
    throw std::invalid_argument(
        strfmt("rate must be a positive finite number, got {}", rate));
  }
  if (trace.size() < 2) return trace;
  const Time span = trace.back().arrival - trace.front().arrival;
  if (span <= 0) return trace;
  const Rate current = static_cast<double>(trace.size() - 1) / span;
  const double scale = current / rate;
  const Time origin = trace.front().arrival;
  for (Request& r : trace) {
    r.arrival = origin + (r.arrival - origin) * scale;
  }
  return trace;
}

}  // namespace hero::wl
