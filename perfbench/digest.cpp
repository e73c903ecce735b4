#include "digest.hpp"

#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string_view>

namespace perfbench {
namespace {

using hero::obs::EventTracer;
using hero::obs::MetricsRegistry;
using hero::obs::Phase;
using hero::obs::TraceEvent;

double counter_value(const MetricsRegistry& metrics, std::string_view name) {
  const hero::obs::Counter* c = metrics.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

double gauge_average(const MetricsRegistry& metrics, std::string_view name) {
  const hero::obs::Gauge* g = metrics.find_gauge(name);
  return g != nullptr ? g->average() : 0.0;
}

/// Discards what is written and counts the bytes.
class CountingBuf : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

}  // namespace

double gauge_integral(const MetricsRegistry& metrics, std::string_view name) {
  const hero::obs::Gauge* g = metrics.find_gauge(name);
  if (g == nullptr) return 0.0;
  const auto& points = g->timeline();
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    total += points[i].value * hero::raw(points[i + 1].time - points[i].time);
  }
  return total;
}

void digest_metrics(const MetricsRegistry& metrics, std::size_t requests,
                    Values& out) {
  // The online scheduler counts each Eq. 16 decision under the policy it
  // picked ("online.selected.hier-ina@sw0", "online.selected.hier-ring").
  double decisions = 0.0;
  double ina = 0.0;
  constexpr std::string_view kSelected = "online.selected.";
  for (const auto& [name, value] : metrics.snapshot(0.0).counters) {
    if (name.rfind(kSelected, 0) != 0) continue;
    decisions += static_cast<double>(value);
    if (name.find("ina@") != std::string::npos) {
      ina += static_cast<double>(value);
    }
  }
  out["online.policy_decisions"] = decisions;
  out["online.ina_share"] = ratio(ina, decisions);
  out["online.controller_ticks"] =
      counter_value(metrics, "online.controller_ticks");
  out["online.ina_avoided"] = counter_value(metrics, "online.ina_avoided");
  out["faults.injected"] = counter_value(metrics, "faults.injected");
  out["faults.recovered"] = counter_value(metrics, "faults.recovered");
  out["serving.prefill_batches"] =
      counter_value(metrics, "serve.prefill_batches");
  out["serving.decode_iterations"] =
      counter_value(metrics, "serve.decode_iterations");
  out["serving.kv_transfers"] = counter_value(metrics, "serve.kv_transfers");
  out["serving.prefill_queue_avg"] =
      gauge_average(metrics, "serve.prefill_queue");
  out["serving.decode_wait_avg"] = gauge_average(metrics, "serve.decode_wait");
  // In-flight collectives integrated over time: the summed duration of
  // every TP/PP all-reduce, prefill and decode alike.
  out["collectives.sync_s"] = ratio(gauge_integral(metrics, "coll.inflight"),
                                    static_cast<double>(requests));
}

double async_span_seconds(const EventTracer& tracer, const char* category) {
  double total = 0.0;
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.category != category) continue;
    if (ev.phase == Phase::kAsyncBegin) total -= hero::raw(ev.time);
    if (ev.phase == Phase::kAsyncEnd) total += hero::raw(ev.time);
  }
  return total;
}

void digest_trace(const EventTracer& tracer, std::size_t requests,
                  Values& out) {
  // Span durations summed as (sum of ends) - (sum of begins), which holds
  // however the instances of a fleet interleave on the shared "prefill"
  // and "decode" tracks. A prefill batch span opens as "batch" and is the
  // only prefill span that closes with arguments; its stage spans close
  // with none. Span ends carry no category, so the two tracks are learned
  // from their first begin (track 0 is the unnamed default, never these).
  hero::obs::TrackId prefill = 0;
  hero::obs::TrackId decode = 0;
  double prefill_busy = 0.0;
  double decode_busy = 0.0;
  double kv_transfer = 0.0;
  for (const TraceEvent& ev : tracer.events()) {
    const double t = hero::raw(ev.time);
    switch (ev.phase) {
      case Phase::kSpanBegin:
        if (ev.category == "prefill") {
          prefill = ev.track;
          if (ev.name == "batch") prefill_busy -= t;
        }
        if (ev.category == "decode") {
          decode = ev.track;
          decode_busy -= t;
        }
        break;
      case Phase::kSpanEnd:
        if (prefill != 0 && ev.track == prefill && !ev.args.empty()) {
          prefill_busy += t;
        }
        if (decode != 0 && ev.track == decode) decode_busy += t;
        break;
      case Phase::kAsyncBegin:
        if (ev.category == "kv") kv_transfer -= t;
        break;
      case Phase::kAsyncEnd:
        if (ev.category == "kv") kv_transfer += t;
        break;
      default:
        break;
    }
  }
  const double n = static_cast<double>(requests);
  out["serving.prefill_busy_s"] = ratio(prefill_busy, n);
  out["serving.decode_busy_s"] = ratio(decode_busy, n);
  out["serving.kv_transfer_s"] = ratio(kv_transfer, n);

  CountingBuf counter;
  std::ostream sink(&counter);
  tracer.write_chrome_trace(sink);
  out["obs.trace_events_per_request"] =
      ratio(static_cast<double>(tracer.event_count()), n);
  out["obs.trace_bytes_per_request"] =
      ratio(static_cast<double>(counter.bytes()), n);
}

}  // namespace perfbench
