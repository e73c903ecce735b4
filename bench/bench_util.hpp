// Shared helpers for the figure-reproduction benchmark harnesses.
//
// Every bench binary follows the same pattern: run the experiment cells
// through google-benchmark (one benchmark case per cell, pinned to a single
// iteration — the interesting output is the simulated metrics reported as
// counters, not wall time), collect the paper-style series, and print the
// figure's table after the run so EXPERIMENTS.md can quote it directly.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "core/heroserve.hpp"

namespace hero::bench {

/// Shared harness front door: strip the repo-wide flags from argv (a shared
/// flag outside `accepted`, the cli::SharedFlag bits the bench reads, is an
/// error), then hand the remainder (--benchmark_filter etc.) to
/// google-benchmark. Call first in every bench main.
inline cli::Options init(int& argc, char** argv, const char* usage,
                         unsigned accepted) {
  cli::Options opts = cli::parse_args(argc, argv, usage, accepted);
  benchmark::Initialize(&argc, argv);
  return opts;
}

/// The serving set-up the chaos, fleet, prefix, autoscale and simspeed
/// benches share: OPT-66B, ShareGPT lengths, `seed` for both the workload
/// generator and the serving stack, 2.5 s TTFT / 0.15 s TPOT SLAs. Callers
/// add the topology, the rate and their own knobs.
inline ExperimentConfig opt66b_chat_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.serving.model = llm::opt_66b();
  cfg.workload.lengths = wl::sharegpt_lengths();
  cfg.workload.seed = seed;
  cfg.serving.seed = seed;
  cfg.serving.sla_ttft = 2.5;
  cfg.serving.sla_tpot = 0.15;
  return cfg;
}

/// The chaos link-flap plan on the Fig. 6 testbed: two non-leader GPU
/// uplinks (w0g1-sw1, w1g1-sw1) degraded to 5% for the first half of each
/// 4 s cycle, ten cycles from t = 2 s.
inline faults::FaultPlan link_flap_plan() {
  faults::FaultPlan plan;
  for (const char* edge : {"w0g1-sw1", "w1g1-sw1"}) {
    faults::FaultEvent ev;
    ev.kind = faults::FaultKind::kLinkFlap;
    ev.at = 2.0;
    ev.period = 4.0;
    ev.duration = 2.0;
    ev.count = 10;
    ev.target = edge;
    ev.magnitude = 0.05;
    plan.events.push_back(ev);
  }
  return plan;
}

/// Machine-readable benchmark output (BENCH_<name>.json). Values are
/// rendered with fixed formatting in insertion order, so identical runs
/// produce byte-identical files — the determinism gate diffs them.
class JsonReport {
 public:
  explicit JsonReport(std::string benchmark)
      : benchmark_(std::move(benchmark)) {}

  class Row {
   public:
    Row& str(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, "\"" + value + "\"");
      return *this;
    }
    Row& num(const std::string& key, double value) {
      fields_.emplace_back(key, strfmt("{}", value));
      return *this;
    }
    Row& integer(const std::string& key, std::uint64_t value) {
      fields_.emplace_back(key, strfmt("{}", value));
      return *this;
    }

   private:
    friend class JsonReport;
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  Row& add_row() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Write `{"benchmark": ..., "cells": [...]}`; returns false on I/O error.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n  \"cells\": [",
                 benchmark_.c_str());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s\n    {", r == 0 ? "" : ",");
      const auto& fields = rows_[r].fields_;
      for (std::size_t i = 0; i < fields.size(); ++i) {
        std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                     fields[i].first.c_str(), fields[i].second.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %zu cells -> %s\n", rows_.size(), path.c_str());
    return true;
  }

 private:
  std::string benchmark_;
  std::vector<Row> rows_;
};

/// The latency/goodput fields every serving bench reports per cell.
inline void report_latency_fields(JsonReport::Row& row,
                                  const serve::ServingReport& report) {
  row.num("goodput_rps", raw(report.requests_per_second))
      .num("per_gpu_goodput", raw(report.per_gpu_goodput))
      .num("sla_attainment", report.sla_attainment)
      .num("ttft_p50_s", report.ttft.median())
      .num("ttft_p99_s", report.ttft.p99())
      .num("tpot_p50_s", report.tpot.median())
      .num("tpot_p99_s", report.tpot.p99());
}

/// Ordered collector for figure rows; printed after RunSpecifiedBenchmarks.
class FigureTable {
 public:
  FigureTable(std::string title, std::vector<std::string> headers)
      : title_(std::move(title)), headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::printf("\n=== %s ===\n", title_.c_str());
    Table table(headers_);
    for (const auto& row : rows_) table.add_row(row);
    table.print();
  }

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Relative improvement a/b - 1 rendered as "+x.x%".
[[nodiscard]] inline std::string pct_gain(double a, double b) {
  if (b <= 0) return "n/a";
  return fmt_double(100.0 * (a / b - 1.0), 1) + "%";
}

}  // namespace hero::bench
