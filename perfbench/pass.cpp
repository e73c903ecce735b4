// One measured pass of a benchmark workload, printed as one JSON line.
//
//   perfbench_pass --workload NAME --seed N [--observe 0|1] [--plan 0|1]
//
// perfbench/run.py runs this binary once per pass, in a fresh process each
// time, so every pass pays the same cold start (latency-model fit, empty
// allocator) and its peak resident memory is its own. --observe 1 is the
// traced pass: the program's obs::Sink is attached. --plan 0 skips the
// benchmark's own plan (default 1) on passes that only add simulated
// samples.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

void print_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", static_cast<unsigned>(c));
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void print_values(const char* key, const perfbench::Values& values) {
  std::printf(",\"%s\":{", key);
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) std::putchar(',');
    first = false;
    print_string(name);
    // JSON has no NaN/inf; run.py fails a pass that reports null.
    if (std::isfinite(value)) {
      std::printf(":%.17g", value);
    } else {
      std::printf(":null");
    }
  }
  std::putchar('}');
}

/// Peak resident memory of this process image (VmHWM). getrusage's
/// ru_maxrss is no use here: it keeps the parent's peak across fork+exec.
double peak_rss_mb() {
  double kib = std::nan("");
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_pass --workload NAME --seed N "
               "[--observe 0|1] [--plan 0|1]\nworkloads:");
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  bool observe = false;
  bool standalone_plan = true;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      seed_given = true;
    } else if (flag == "--observe") {
      observe = value == "1";
    } else if (flag == "--plan") {
      standalone_plan = value == "1";
    } else {
      usage();
    }
  }
  const auto& names = perfbench::workload_names();
  if (argc % 2 == 0 || !seed_given ||
      std::find(names.begin(), names.end(), workload) == names.end()) {
    usage();
  }

  perfbench::PassResult result;
  try {
    result = perfbench::run_pass(workload, seed, observe, standalone_plan);
  } catch (const std::exception& e) {
    result.errors.push_back(std::string("pass threw: ") + e.what());
  }
  result.host["peak_rss_mb"] = peak_rss_mb();

  std::printf("{\"workload\":");
  print_string(workload);
  std::printf(",\"seed\":%llu,\"observe\":%s,\"tracer\":%s",
              static_cast<unsigned long long>(seed),
              observe ? "true" : "false",
              result.tracer_attached ? "true" : "false");
  std::printf(",\"attempted\":%zu,\"failed\":%zu,\"errors\":[",
              result.attempted, result.failed);
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) std::putchar(',');
    print_string(result.errors[i]);
  }
  std::putchar(']');
  print_values("host", result.host);
  print_values("sim", result.sim);
  print_values("counts", result.counts);
  print_values("obs", result.obs);
  std::printf("}\n");
  return 0;
}
