// Tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "netsim/sim.hpp"

namespace hero::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(raw(s.now()), raw(0.0));
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(2.0, [&] { order.push_back(2); });
  s.schedule(1.0, [&] { order.push_back(1); });
  s.schedule(3.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(raw(s.now()), raw(3.0));
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInUsesRelativeDelay) {
  Simulator s;
  Time fired = -1;
  s.schedule(5.0, [&] {
    s.schedule_in(2.5, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(raw(fired), raw(7.5));
}

TEST(Simulator, PastEventThrows) {
  Simulator s;
  s.schedule(5.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule(1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  const EventId id = s.schedule(1.0, [&] { ran = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.executed_events(), 0u);
}

TEST(Simulator, CancelInvalidIsNoop) {
  Simulator s;
  s.cancel(kInvalidEvent);
  s.cancel(12345);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule(1.0, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  int count = 0;
  s.schedule(1.0, [&] { ++count; });
  s.schedule(2.0, [&] { ++count; });
  s.schedule(5.0, [&] { ++count; });
  s.run_until(3.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(raw(s.now()), raw(3.0));
  s.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) s.schedule_in(1.0, recurse);
  };
  s.schedule(0.0, recurse);
  s.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(raw(s.now()), raw(9.0));
}

TEST(Simulator, PendingEventsTracksCancellations) {
  Simulator s;
  const EventId a = s.schedule(1.0, [] {});
  s.schedule(2.0, [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Simulator, ExecutedEventsCounts) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(i, [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 7u);
}

TEST(Simulator, ScheduledAndCancelledCounters) {
  Simulator s;
  const EventId a = s.schedule(1.0, [] {});
  s.schedule(2.0, [] {});
  EXPECT_EQ(s.scheduled_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.cancelled_events(), 1u);
  // Double-cancel and stale cancels are no-ops, not double counts.
  s.cancel(a);
  EXPECT_EQ(s.cancelled_events(), 1u);
  s.run();
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(Simulator, CancelAfterExecutionIsNoop) {
  Simulator s;
  const EventId id = s.schedule(1.0, [] {});
  s.run();
  s.cancel(id);  // slot may be reused; the generation stamp protects it
  EXPECT_EQ(s.cancelled_events(), 0u);
}

TEST(Simulator, StaleIdDoesNotCancelRecycledSlot) {
  Simulator s;
  const EventId first = s.schedule(1.0, [] {});
  s.run();
  // The pool slot of `first` is free; this event will likely reuse it.
  bool ran = false;
  s.schedule(2.0, [&] { ran = true; });
  s.cancel(first);  // stale generation: must NOT hit the new occupant
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.cancelled_events(), 0u);
}

TEST(Simulator, EqualTimeFifoSurvivesInterleavedCancels) {
  Simulator s;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(s.schedule(1.0, [&order, i] { order.push_back(i); }));
  }
  // Cancelling the odd events must not disturb the even events' FIFO order
  // (heap removals swap nodes around; the insertion seq keeps order).
  for (int i = 1; i < 10; i += 2) s.cancel(ids[i]);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(Simulator, PoolReuseKeepsFifoOrder) {
  Simulator s;
  // Burn and free a batch of slots, then schedule a same-time batch that
  // reuses them: execution must still follow insertion order.
  std::vector<EventId> burn;
  for (int i = 0; i < 8; ++i) burn.push_back(s.schedule(1.0, [] {}));
  for (const EventId id : burn) s.cancel(id);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    s.schedule(2.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

/// Randomized cancel/reschedule stress against a reference model: schedule
/// events with colliding times, cancel a scripted subset, and require the
/// indexed heap to fire exactly the reference's (time, insertion-seq) order.
TEST(Simulator, CancelStressMatchesReferenceModel) {
  Simulator s;
  struct Ref {
    double at = 0.0;
    int idx = 0;
  };
  std::vector<Ref> expected;
  std::vector<int> fired;
  std::vector<EventId> ids;
  std::uint64_t lcg = 42;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((lcg >> 33) % 50);  // many equal times
  };
  std::vector<bool> cancelled(300, false);
  for (int i = 0; i < 300; ++i) {
    const double at = next();
    ids.push_back(s.schedule(at, [&fired, i] { fired.push_back(i); }));
    expected.push_back({at, i});
  }
  for (int i = 0; i < 300; i += 3) {
    s.cancel(ids[i]);
    cancelled[i] = true;
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Ref& a, const Ref& b) { return a.at < b.at; });
  std::vector<int> want;
  for (const Ref& r : expected) {
    if (!cancelled[r.idx]) want.push_back(r.idx);
  }
  s.run();
  EXPECT_EQ(fired, want);
  EXPECT_EQ(s.executed_events(), want.size());
  EXPECT_EQ(s.cancelled_events(), 100u);
}

/// A series over caller-given times in rank order (possibly unsorted, with
/// duplicates): fires in (time, rank) order and reports each rank fired.
class VectorSeries final : public EventSeries {
 public:
  VectorSeries(std::vector<double> times,
               std::function<void(std::size_t)> fire)
      : times_(std::move(times)), fire_(std::move(fire)),
        order_(times_.size()) {
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::stable_sort(order_.begin(), order_.end(),
                     [this](std::size_t a, std::size_t b) {
                       return times_[a] < times_[b];
                     });
  }
  [[nodiscard]] std::uint64_t size() const override { return times_.size(); }
  bool advance(Time& at, std::uint64_t& rank) override {
    if (next_ == order_.size()) return false;
    current_ = order_[next_++];
    at = times_[current_];
    rank = current_;
    return true;
  }
  void fire() override { fire_(current_); }

 private:
  std::vector<double> times_;
  std::function<void(std::size_t)> fire_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
  std::size_t current_ = 0;
};

/// Drives one simulator through a fixed script — individual events before
/// and after a batch, follow-ups scheduled from inside events — with the
/// batch scheduled either eagerly (one schedule() per element, in rank
/// order) or as one series. Returns the firing log.
std::vector<std::string> run_script(bool as_series,
                                    const std::vector<double>& batch,
                                    Simulator& s) {
  std::vector<std::string> log;
  auto record = [&log, &s](std::string what) {
    log.push_back(what + "@" + std::to_string(raw(s.now())));
  };
  s.schedule(1.0, [&] { record("a0"); });
  s.schedule(2.0, [&] {
    record("a1");
    // Same time as batch elements already queued: fires after them.
    s.schedule_in(0.0, [&] { record("a1-followup"); });
  });
  auto fire = [&](std::size_t i) {
    record("b" + std::to_string(i));
    if (i % 3 == 0) {
      s.schedule_in(0.5, [&, i] { record("f" + std::to_string(i)); });
    }
  };
  if (as_series) {
    s.schedule_series(std::make_unique<VectorSeries>(batch, fire));
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      s.schedule(batch[i], [fire, i] { fire(i); });
    }
  }
  s.schedule(2.0, [&] { record("c0"); });
  s.schedule(3.5, [&] { record("c1"); });
  s.run();
  return log;
}

TEST(SimulatorSeries, FiresInExactlyTheEagerOrder) {
  // Unsorted, with duplicate times and ties against individual events
  // scheduled before (a1 at 2.0) and after (c0 at 2.0, c1 at 3.5).
  const std::vector<double> batch = {3.0, 2.0, 1.0, 2.0, 3.5, 0.5,
                                     2.0, 4.0, 3.0, 1.5, 2.5, 3.5};
  Simulator eager;
  Simulator lazy;
  const std::vector<std::string> want = run_script(false, batch, eager);
  const std::vector<std::string> got = run_script(true, batch, lazy);
  EXPECT_EQ(got, want);
  EXPECT_EQ(lazy.scheduled_events(), eager.scheduled_events());
  EXPECT_EQ(lazy.executed_events(), eager.executed_events());
  EXPECT_LT(lazy.peak_pending_events(), eager.peak_pending_events());
}

TEST(SimulatorSeries, CalendarHoldsOneElementOfALongSeries) {
  Simulator s;
  std::vector<double> times(10000);
  for (std::size_t i = 0; i < times.size(); ++i) {
    times[i] = static_cast<double>((i * 7919) % 1000);  // unsorted, repeats
  }
  std::size_t fired = 0;
  std::size_t max_pending = 0;
  double last = -1.0;
  bool ordered = true;
  s.schedule_series(std::make_unique<VectorSeries>(
      times, [&](std::size_t) {
        ++fired;
        max_pending = std::max(max_pending, s.pending_events());
        ordered = ordered && raw(s.now()) >= last;
        last = raw(s.now());
      }));
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_EQ(s.scheduled_events(), 10000u);
  s.run();
  EXPECT_EQ(fired, 10000u);
  EXPECT_TRUE(ordered);
  EXPECT_EQ(s.executed_events(), 10000u);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_LE(max_pending, 1u);
  EXPECT_EQ(s.peak_pending_events(), 1u);
}

TEST(SimulatorSeries, SequenceNumbersAreReservedUpFront) {
  // An event scheduled after the series ties with its last element and
  // must still fire after it, as it would after eager scheduling.
  Simulator s;
  std::vector<int> order;
  s.schedule_series(std::make_unique<VectorSeries>(
      std::vector<double>{5.0, 5.0},
      [&](std::size_t i) { order.push_back(static_cast<int>(i)); }));
  s.schedule(5.0, [&] { order.push_back(9); });
  EXPECT_EQ(s.scheduled_events(), 3u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 9}));
}

TEST(SimulatorSeries, EmptySeriesSchedulesNothing) {
  Simulator s;
  s.schedule_series(std::make_unique<VectorSeries>(
      std::vector<double>{}, [](std::size_t) {}));
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.scheduled_events(), 0u);
}

TEST(SimulatorSeries, PastHeadThrows) {
  Simulator s;
  s.schedule(5.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_series(std::make_unique<VectorSeries>(
                   std::vector<double>{6.0, 4.0}, [](std::size_t) {})),
               std::invalid_argument);
}

TEST(Simulator, RejectsNonFiniteTime) {
  // A NaN time used to fire and set now() to NaN, after which no time
  // compared as "in the past" any more.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Simulator s;
  s.schedule(1.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule(-inf, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_in(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_in(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_series(std::make_unique<VectorSeries>(
                   std::vector<double>{nan}, [](std::size_t) {})),
               std::invalid_argument);
  EXPECT_THROW(s.schedule_series(std::make_unique<VectorSeries>(
                   std::vector<double>{inf}, [](std::size_t) {})),
               std::invalid_argument);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.scheduled_events(), 1u);  // rejected times reserve nothing
  EXPECT_FALSE(s.step());
  EXPECT_DOUBLE_EQ(raw(s.now()), 1.0);
  // The calendar still orders and rejects as before.
  EXPECT_THROW(s.schedule(0.5, [] {}), std::invalid_argument);
  bool fired = false;
  s.schedule(2.0, [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorSeries, OutOfOrderElementThrows) {
  /// Hands out its two elements in the wrong (time) order.
  class Backwards final : public EventSeries {
   public:
    [[nodiscard]] std::uint64_t size() const override { return 2; }
    bool advance(Time& at, std::uint64_t& rank) override {
      if (next_ == 2) return false;
      at = next_ == 0 ? 2.0 : 1.0;
      rank = next_++;
      return true;
    }
    void fire() override {}

   private:
    std::uint64_t next_ = 0;
  };
  Simulator s;
  s.schedule_series(std::make_unique<Backwards>());
  EXPECT_THROW(s.run(), std::logic_error);
}

TEST(SimulatorSeries, PendingElementsOutliveTheCallerAndFireLater) {
  Simulator s;
  int fired = 0;
  {
    std::vector<double> times = {1.0, 2.0, 3.0};
    s.schedule_series(std::make_unique<VectorSeries>(
        std::move(times), [&fired](std::size_t) { ++fired; }));
  }
  s.run_until(1.5);
  EXPECT_EQ(fired, 1);
  s.run();
  EXPECT_EQ(fired, 3);
}

}  // namespace
}  // namespace hero::sim
