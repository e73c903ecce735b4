// Trace file I/O: load and save request traces in a simple CSV format, so
// real production traces (ShareGPT / LongBench exports, Azure LLM traces,
// ...) can be replayed through the simulator instead of the synthetic
// generators.
//
// Format: one request per line, header optional:
//     arrival_s,input_tokens,output_tokens[,session_id,prefix_tokens]
// The two session columns (multi-turn traces for the prefix/KV tier) are
// written only when some request carries a non-zero session_id, so
// sessionless traces round-trip byte-identically with the legacy 3-column
// files. Lines starting with '#' are comments. Requests are sorted by
// arrival on load and re-numbered sequentially.
#pragma once

#include <iosfwd>
#include <string>

#include "workload/trace.hpp"

namespace hero::wl {

/// Parse a trace from a stream. Throws std::runtime_error on malformed
/// rows (with the offending line number).
[[nodiscard]] Trace read_trace_csv(std::istream& in);

/// Load from a file path. Throws std::runtime_error when unreadable.
[[nodiscard]] Trace load_trace_csv(const std::string& path);

/// Serialize with a header comment.
void write_trace_csv(std::ostream& out, const Trace& trace);

/// Save to a file path. Throws std::runtime_error when unwritable.
void save_trace_csv(const std::string& path, const Trace& trace);

/// Rescale a trace's arrival times so its mean rate becomes `rate`
/// (requests/s). Useful for replaying one recorded trace across the rate
/// sweep of a scalability experiment. Traces with fewer than 2 requests
/// are returned unchanged. Throws std::invalid_argument unless `rate` is a
/// positive finite number.
[[nodiscard]] Trace rescale_rate(Trace trace, Rate rate);

}  // namespace hero::wl
