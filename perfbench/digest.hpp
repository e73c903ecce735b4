// Per-layer numbers read from the program's own observability backends
// after a traced pass. Everything is aggregated in memory from what the
// registry and tracer already hold; the tracer's Chrome JSON is only ever
// streamed into a byte counter, never kept.
#pragma once

#include <cstddef>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Counters and gauges from the MetricsRegistry: online policy decisions,
/// faults, serving batches/iterations/KV transfers, time-averaged queue
/// lengths, and collective (TP/PP sync) seconds per request of the run.
void digest_metrics(const hero::obs::MetricsRegistry& metrics,
                    std::size_t requests, Values& out);

/// Busy seconds per request from the EventTracer's spans (prefill batches,
/// decode iterations, KV transfers) and the tracer's own cost per request:
/// events recorded and bytes of Chrome trace JSON written.
void digest_trace(const hero::obs::EventTracer& tracer, std::size_t requests,
                  Values& out);

/// Sum of (end - begin) over the tracer's async spans of `category`.
[[nodiscard]] double async_span_seconds(const hero::obs::EventTracer& tracer,
                                        const char* category);

/// Integral of a registry gauge over its change-point timeline.
[[nodiscard]] double gauge_integral(const hero::obs::MetricsRegistry& metrics,
                                    std::string_view name);

}  // namespace perfbench
