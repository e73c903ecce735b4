#include "netsim/sim.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"

namespace hero::sim {

void Simulator::check_time(Time at) const {
  // A NaN time would fire and poison now(): every later `at < now_` test
  // is false against NaN, so the calendar would stop rejecting anything.
  if (!std::isfinite(raw(at))) {
    throw std::invalid_argument("Simulator: non-finite event time");
  }
  if (at < now_) throw std::invalid_argument("Simulator: event in the past");
}

EventId Simulator::schedule(Time at, Callback cb) {
  check_time(at);
  const EventId id = queue_.push(at, next_seq_++, std::move(cb));
  note_pending();
  return id;
}

void Simulator::schedule_series(std::unique_ptr<EventSeries> series) {
  Time at = 0.0;
  std::uint64_t rank = 0;
  const bool any = series->advance(at, rank);
  // Elements only move forward, so the head is the earliest one. A
  // rejected series reserves no sequence numbers.
  if (any) check_time(at);
  const std::uint64_t base = next_seq_;
  next_seq_ += series->size();
  if (any) push_series(std::move(series), base, at, rank);
}

void Simulator::push_series(std::unique_ptr<EventSeries> series,
                            std::uint64_t base, Time at, std::uint64_t rank) {
  if (rank >= series->size()) {
    throw std::logic_error("Simulator: series rank out of range");
  }
  // The pending closure owns the series: elements left in the calendar
  // when a caller stops stepping stay safe to fire later.
  queue_.push(at, base + rank,
              [this, series = std::move(series), base, at, rank]() mutable {
                series->fire();
                Time next_at = 0.0;
                std::uint64_t next_rank = 0;
                if (!series->advance(next_at, next_rank)) return;
                if (!(next_at > at || (next_at == at && next_rank > rank))) {
                  throw std::logic_error("Simulator: series out of order");
                }
                push_series(std::move(series), base, next_at, next_rank);
              });
  note_pending();
}

EventId Simulator::schedule_in(Time delay, Callback cb) {
  return schedule(now_ + delay, std::move(cb));
}

void Simulator::cancel(EventId id) {
  // Only events that are actually pending can be cancelled; stale or bogus
  // ids are ignored so pending_events() stays exact.
  if (queue_.cancel(id)) ++cancelled_;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [at, cb] = queue_.pop();
  // The calendar executes in (time, insertion) order; time running
  // backwards means the heap or an in-callback mutation broke the
  // deterministic ordering contract.
  HERO_INVARIANT(at >= now_, "event at t={} before now={}", at, now_);
  now_ = at;
  ++executed_;
  cb();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(Time t) {
  while (!queue_.empty() && queue_.top_time() <= t) {
    step();
  }
  if (t > now_) now_ = t;
}

}  // namespace hero::sim
