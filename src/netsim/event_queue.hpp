// Indexed, pooled event calendar for the discrete-event core.
//
// The original Simulator kept a std::priority_queue plus two unordered_sets
// for lazy deletion: every cancel left a tombstone in the heap, every
// schedule allocated a fresh std::function node, and a cancelled event was
// only reclaimed when it bubbled to the top. The flow network cancels and
// reschedules completion events constantly (every rate change), so the
// calendar is rebuilt here as an indexed binary min-heap over a slot pool:
//
//  - every live event owns a pool slot; the heap stores slot indices and
//    each slot remembers its heap position, so cancel() is a true O(log n)
//    removal — no tombstones, pending count == heap size by construction;
//  - slots are recycled through a free list and callbacks are small-buffer
//    hero::Callbacks, so steady-state scheduling performs no allocation;
//  - handles encode (generation, slot); a stale or bogus handle simply
//    fails the generation check, keeping cancel() a safe no-op.
//
// Ordering is (time, sequence): `seq` is a unique stamp chosen by the
// Simulator — normally a counter at insertion, or a number reserved ahead
// for a lazily fed series — which preserves the FIFO-among-equal-times
// contract the rest of the stack depends on for determinism.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/callback.hpp"
#include "common/check.hpp"
#include "common/units.hpp"

namespace hero::sim {

/// Opaque handle to a scheduled event: (generation << 32) | (slot + 1).
/// Zero is never a valid handle.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  using Callback = hero::Callback<void()>;

  /// Insert an event. `seq` must be unique among pending events — it is the
  /// tie-break among equal times.
  EventId push(Time at, std::uint64_t seq, Callback cb) {
    std::uint32_t slot = 0;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    Node& node = pool_[slot];
    node.at = at;
    node.seq = seq;
    node.cb = std::move(cb);
    node.pos = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(slot);
    sift_up(node.pos);
    return encode(node.gen, slot);
  }

  /// Remove a pending event. Returns false (and does nothing) for handles
  /// that already fired, were already cancelled, or never existed.
  bool cancel(EventId id) {
    const std::uint32_t slot = decode_slot(id);
    if (slot == kNoSlot || slot >= pool_.size()) return false;
    Node& node = pool_[slot];
    if (node.pos == kNotQueued || encode(node.gen, slot) != id) return false;
    remove_at(node.pos);
    retire(slot);
    return true;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Earliest pending time; only valid when !empty().
  [[nodiscard]] Time top_time() const { return pool_[heap_.front()].at; }

  /// Pop the earliest (time, seq) event and hand back its callback. The
  /// callback is moved out *before* the caller runs it, so an event is free
  /// to schedule or cancel others — the heap is already consistent.
  std::pair<Time, Callback> pop() {
    HERO_INVARIANT(!heap_.empty(), "EventQueue::pop on empty calendar");
    const std::uint32_t slot = heap_.front();
    Node& node = pool_[slot];
    const Time at = node.at;
    Callback cb = std::move(node.cb);
    remove_at(0);
    retire(slot);
    return {at, std::move(cb)};
  }

 private:
  static constexpr std::uint32_t kNotQueued =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  struct Node {
    Time at = 0.0;
    std::uint64_t seq = 0;
    Callback cb;
    std::uint32_t pos = kNotQueued;  ///< index into heap_, kNotQueued if free
    std::uint32_t gen = 0;          ///< bumped on retire; stale-handle guard
  };

  static EventId encode(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) |
           static_cast<EventId>(slot + 1);
  }
  static std::uint32_t decode_slot(EventId id) {
    const std::uint32_t low = static_cast<std::uint32_t>(id & 0xffffffffu);
    return low == 0 ? kNoSlot : low - 1;
  }

  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    const Node& na = pool_[a];
    const Node& nb = pool_[b];
    if (na.at != nb.at) return na.at < nb.at;
    return na.seq < nb.seq;
  }

  void place(std::uint32_t pos, std::uint32_t slot) {
    heap_[pos] = slot;
    pool_[slot].pos = pos;
  }

  void sift_up(std::uint32_t pos) {
    const std::uint32_t slot = heap_[pos];
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 2;
      if (!before(slot, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, slot);
  }

  void sift_down(std::uint32_t pos) {
    const std::uint32_t slot = heap_[pos];
    const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      std::uint32_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], slot)) break;
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, slot);
  }

  /// Detach heap_[pos] from the heap (the slot itself is retired by the
  /// caller). Fills the hole with the last element and restores order.
  void remove_at(std::uint32_t pos) {
    const std::uint32_t last = static_cast<std::uint32_t>(heap_.size()) - 1;
    if (pos != last) {
      place(pos, heap_[last]);
      heap_.pop_back();
      // The filler may need to move either way relative to its new parent.
      sift_down(pos);
      sift_up(pool_[heap_[pos]].pos);
    } else {
      heap_.pop_back();
    }
  }

  void retire(std::uint32_t slot) {
    Node& node = pool_[slot];
    node.pos = kNotQueued;
    ++node.gen;
    node.cb = nullptr;
    free_.push_back(slot);
  }

  std::vector<Node> pool_;
  std::vector<std::uint32_t> heap_;   ///< slot indices, binary min-heap
  std::vector<std::uint32_t> free_;   ///< recycled slots
};

}  // namespace hero::sim
