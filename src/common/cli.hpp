// Shared command-line parsing for the example and benchmark binaries.
//
// Every per-binary main used to hand-roll the same argv loop; this parser
// owns the flags they all share —
//   --seed N           deterministic run seed
//   --faults plan.json fault-injection plan (see faults/fault_plan.hpp)
//   --trace out.json   Chrome trace output path
//   --instances N      fleet size (multi-instance serving)
//   --router NAME      fleet dispatch policy (rr | random | jsq | hero)
//   --quick            reduced-size run (smoke-test mode)
//   --full-solve       whole-fabric max-min each round (equivalence gate)
//   --help             print the binary's usage string and exit 0
// — plus positional argument collection. Each binary names the shared
// flags it reads; any other shared flag is an error, so a flag a binary
// would ignore never looks accepted. Recognized flags are *removed* from
// argv (argc is updated) so harnesses can hand the remainder to
// google-benchmark's Initialize() untouched; unrecognized flags (e.g.
// --benchmark_filter) pass through.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hero::cli {

struct Options {
  std::uint64_t seed = 1;
  bool seed_given = false;     ///< --seed appeared (callers keep their own
                               ///< default otherwise)
  std::string faults_path;     ///< empty = no fault plan requested
  std::string trace_path;      ///< empty = no trace requested
  std::size_t instances = 1;   ///< --instances (fleet size; 1 = single)
  std::string router;          ///< --router policy name; empty = default
  bool quick = false;          ///< --quick smoke-test mode
  bool full_solve = false;     ///< --full-solve (incremental-engine check)
  std::vector<std::string> positional;
};

/// The shared flags, one bit each; a binary passes the ones it reads.
/// --help is always accepted.
enum SharedFlag : unsigned {
  kSeed = 1u << 0,
  kFaults = 1u << 1,
  kTrace = 1u << 2,
  kInstances = 1u << 3,
  kRouter = 1u << 4,
  kQuick = 1u << 5,
  kFullSolve = 1u << 6,
};

/// Parse and strip the shared flags from argv. On --help prints `usage`
/// and exits 0; on a flag missing its value prints `usage` to stderr and
/// exits 1; on a shared flag outside `accepted`, or a bad --seed or
/// --instances value (see parse_uint), prints one `error:` line to stderr
/// and exits 2.
[[nodiscard]] Options parse_args(int& argc, char** argv, const char* usage,
                                 unsigned accepted);

/// Run `body` as a binary's main: a std::exception escaping it prints one
/// `error: <what>` line to stderr and returns 2 instead of aborting.
[[nodiscard]] int guarded_main(int argc, char** argv,
                               int (*body)(int, char**));

/// `text` as a whole non-negative integer no larger than `max`. Throws
/// std::invalid_argument naming `what` on anything else: trailing text
/// ("10abc"), a sign ("-5"), a fraction ("1.5"), an empty string or a value
/// out of range.
[[nodiscard]] std::uint64_t parse_uint(
    const std::string& text, const std::string& what,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Positional accessors with defaults (index past the end -> fallback).
/// positional_double throws std::invalid_argument when the text is not
/// entirely a number ("fast", "2x"); positional_size when it is not a
/// whole size_t (parse_uint).
[[nodiscard]] double positional_double(const Options& opts, std::size_t i,
                                       double fallback);
[[nodiscard]] std::size_t positional_size(const Options& opts, std::size_t i,
                                          std::size_t fallback);
[[nodiscard]] std::string positional_str(const Options& opts, std::size_t i,
                                         std::string fallback = {});

}  // namespace hero::cli
