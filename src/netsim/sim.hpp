// Discrete-event simulation core.
//
// A single-threaded event calendar: callbacks scheduled at absolute times,
// executed in time order, equal times in the order they were scheduled.
// Everything in HeroServe that "takes time" — flow completions, compute
// kernels, controller sync periods, request arrivals — is an event on one
// Simulator instance, which makes runs fully deterministic for a given
// seed.
//
// The calendar is an indexed pooled heap (see event_queue.hpp): cancel()
// is a true O(log n) removal instead of a tombstone, and slots are
// recycled, so the cancel/reschedule storms the flow network generates on
// every rate change cost neither allocation nor dead-event churn.
//
// The calendar holds only live events. Work known in advance — a trace's
// arrivals, a link flap's inject/recover cycles — enters as an EventSeries:
// its sequence numbers are reserved up front, so every element fires with
// the (time, seq) it would have had if scheduled eagerly, but only the
// series' next element sits in the heap.
#pragma once

#include <cstdint>
#include <memory>

#include "common/units.hpp"
#include "netsim/event_queue.hpp"
#include "obs/sink.hpp"

namespace hero::sim {

/// A run of events whose schedule is fixed when it is handed to
/// Simulator::schedule_series(). The series owns whatever its elements
/// need; the simulator owns the series until its last element fired.
class EventSeries {
 public:
  EventSeries() = default;
  EventSeries(const EventSeries&) = delete;
  EventSeries& operator=(const EventSeries&) = delete;
  virtual ~EventSeries() = default;

  /// Element count; the simulator reserves one sequence number for each.
  [[nodiscard]] virtual std::uint64_t size() const = 0;
  /// Step to the next element in firing order: set its time and its rank,
  /// the position in [0, size()) at which an eager caller would have
  /// scheduled it. Returns false once every element was handed out.
  /// (at, rank) must increase strictly from one element to the next.
  virtual bool advance(Time& at, std::uint64_t& rank) = 0;
  /// Run the element the last advance() stepped to.
  virtual void fire() = 0;
};

class Simulator {
 public:
  using Callback = hero::Callback<void()>;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `cb` at absolute time `at` (finite, >= now). Returns a handle
  /// usable with cancel(). Throws std::invalid_argument otherwise.
  EventId schedule(Time at, Callback cb);
  /// Schedule `cb` after `delay` seconds.
  EventId schedule_in(Time delay, Callback cb);
  /// Cancel a pending event; no-op if it already ran or was cancelled.
  void cancel(EventId id);
  /// Schedule every element of `series` in one call. Equivalent to calling
  /// schedule() for each element in rank order now — same firing order
  /// against every other event, same scheduled_events() — but the calendar
  /// holds at most one element of the series at a time. Throws if the
  /// first element lies in the past or is not finite; elements cannot be
  /// cancelled.
  void schedule_series(std::unique_ptr<EventSeries> series);

  /// Execute the next event. Returns false when the calendar is empty.
  bool step();
  /// Run until the calendar drains.
  void run();
  /// Run events with time <= t, then set now() = t.
  void run_until(Time t);

  /// Live calendar entries (a series counts as one).
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Most live calendar entries at any point so far.
  [[nodiscard]] std::size_t peak_pending_events() const {
    return peak_pending_;
  }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  /// Lifetime scheduled events, series elements included (fired +
  /// cancelled + still pending).
  [[nodiscard]] std::uint64_t scheduled_events() const { return next_seq_ - 1; }
  /// Lifetime successful cancel() calls.
  [[nodiscard]] std::uint64_t cancelled_events() const { return cancelled_; }

  // --- observability ---
  //
  // Everything simulated hangs off one Simulator, so the simulator is where
  // the observability sink attaches. The default Sink is the null object
  // ("tracing off"); instrumented subsystems test tracer()/metrics() before
  // recording, which keeps the disabled path free of work.
  void attach(obs::Sink sink) { sink_ = sink; }
  [[nodiscard]] const obs::Sink& sink() const { return sink_; }
  [[nodiscard]] obs::EventTracer* tracer() const { return sink_.tracer(); }
  [[nodiscard]] obs::MetricsRegistry* metrics() const {
    return sink_.metrics();
  }

 private:
  /// Throws std::invalid_argument unless `at` is finite and not before now.
  void check_time(Time at) const;
  void push_series(std::unique_ptr<EventSeries> series, std::uint64_t base,
                   Time at, std::uint64_t rank);
  void note_pending() {
    if (queue_.size() > peak_pending_) peak_pending_ = queue_.size();
  }

  Time now_ = 0.0;
  obs::Sink sink_;
  std::uint64_t next_seq_ = 1;  ///< FIFO tie-break among same-time events
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t peak_pending_ = 0;
  EventQueue queue_;
};

}  // namespace hero::sim
