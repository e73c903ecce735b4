#include "common/cli.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>

namespace hero::cli {
namespace {

[[noreturn]] void usage_error(const char* usage, const char* flag) {
  std::fprintf(stderr, "missing value for %s\nusage: %s\n", flag, usage);
  std::exit(1);
}

/// Ends the process like an exception escaping guarded_main would (bench
/// mains are not guarded).
[[noreturn]] void input_error(const char* message) {
  std::fflush(stdout);
  std::fprintf(stderr, "error: %s\n", message);
  std::exit(2);
}

/// parse_uint for a flag value; a bad value is an input_error.
std::uint64_t flag_uint(const char* text, const char* flag,
                        std::uint64_t max) {
  try {
    return parse_uint(text, flag, max);
  } catch (const std::invalid_argument& e) {
    input_error(e.what());
  }
}

}  // namespace

Options parse_args(int& argc, char** argv, const char* usage,
                   unsigned accepted) {
  Options opts;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) usage_error(usage, flag);
      return argv[++i];
    };
    // A shared flag the binary does not read is an error, not ignored.
    auto accept = [&](SharedFlag flag) {
      if ((accepted & flag) != 0) return;
      const std::string message =
          std::string(a) + " is not an option here (usage: " + usage + ")";
      input_error(message.c_str());
    };
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      std::printf("usage: %s\n", usage);
      std::exit(0);
    } else if (std::strcmp(a, "--seed") == 0) {
      accept(kSeed);
      opts.seed = flag_uint(value("--seed"), "--seed",
                            std::numeric_limits<std::uint64_t>::max());
      opts.seed_given = true;
    } else if (std::strcmp(a, "--faults") == 0) {
      accept(kFaults);
      opts.faults_path = value("--faults");
    } else if (std::strcmp(a, "--trace") == 0) {
      accept(kTrace);
      opts.trace_path = value("--trace");
    } else if (std::strcmp(a, "--instances") == 0) {
      accept(kInstances);
      opts.instances = static_cast<std::size_t>(
          flag_uint(value("--instances"), "--instances",
                    std::numeric_limits<std::size_t>::max()));
      if (opts.instances == 0) opts.instances = 1;
    } else if (std::strcmp(a, "--router") == 0) {
      accept(kRouter);
      opts.router = value("--router");
    } else if (std::strcmp(a, "--quick") == 0) {
      accept(kQuick);
      opts.quick = true;
    } else if (std::strcmp(a, "--full-solve") == 0) {
      accept(kFullSolve);
      opts.full_solve = true;
    } else {
      // A negative number ("-1") is a positional value, not a flag.
      if (a[0] != '-' || std::isdigit(static_cast<unsigned char>(a[1])) ||
          a[1] == '.') {
        opts.positional.emplace_back(a);
      }
      argv[out++] = argv[i];  // pass through (benchmark flags, positionals)
    }
  }
  argc = out;
  argv[argc] = nullptr;
  return opts;
}

int guarded_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

double positional_double(const Options& opts, std::size_t i,
                         double fallback) {
  if (i >= opts.positional.size()) return fallback;
  const std::string& text = opts.positional[i];
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0') {
    throw std::invalid_argument("argument " + std::to_string(i + 1) + ": '" +
                                text + "' is not a number");
  }
  return value;
}

std::uint64_t parse_uint(const std::string& text, const std::string& what,
                         std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() && ptr == end && value > max)) {
    throw std::invalid_argument(what + ": '" + text + "' is out of range");
  }
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(what + ": '" + text +
                                "' is not a non-negative integer");
  }
  return value;
}

std::size_t positional_size(const Options& opts, std::size_t i,
                            std::size_t fallback) {
  if (i >= opts.positional.size()) return fallback;
  return static_cast<std::size_t>(
      parse_uint(opts.positional[i], "argument " + std::to_string(i + 1),
                 std::numeric_limits<std::size_t>::max()));
}

std::string positional_str(const Options& opts, std::size_t i,
                           std::string fallback) {
  if (i >= opts.positional.size()) return fallback;
  return opts.positional[i];
}

}  // namespace hero::cli
