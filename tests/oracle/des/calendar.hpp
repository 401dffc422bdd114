// The reference event calendar: a d-ary min-heap keyed on (time, seq),
// templated over the event payload.  A test-side oracle: the engine runs
// on des::LadderCalendar, whose pop order the differential tests and
// bench_calendar check against this heap.
//
//   * BasicCalendar<EventFn>      -- the generic closure calendar behind
//     des::Simulator (the closure-loop reference engine).
//   * BasicCalendar<std::uint32_t> -- a POD-payload heap: a 24-byte entry,
//     so push/pop never touch the allocator once the backing vector has
//     grown to the peak census.
//
// The heap is hand-rolled (rather than std::priority_queue) for two
// reasons: pop() moves the entry out instead of copying it (priority_queue
// only exposes a const top()), and the arity is tunable -- the default 4
// halves the tree depth, trading a few comparisons per level for
// cache-friendlier sift paths on large heaps.
//
// reset(first_seq) restarts sequence numbering at an arbitrary base: the
// engine numbers departures starting at the arrival count so the merged
// arrival-cursor/departure-heap stream preserves the historical global
// FIFO order (arrivals seeded seq 0..N-1 win every equal-time tie; see
// DESIGN.md §7).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "des/event.hpp"

namespace risa::des {

class Simulator;

/// Closure payload: handlers receive the simulator and may schedule more.
using EventFn = std::function<void(Simulator&)>;

template <typename Payload, unsigned Arity = 4>
class BasicCalendar {
  static_assert(Arity >= 2, "BasicCalendar: arity must be at least 2");

 public:
  struct Entry {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    Payload payload{};
  };

  void push(SimTime time, Payload payload) {
    heap_.push_back(Entry{time, next_seq_++, std::move(payload)});
    sift_up(heap_.size() - 1);
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] SimTime next_time() const noexcept { return heap_.front().time; }
  [[nodiscard]] const Entry& top() const noexcept { return heap_.front(); }

  /// Remove and return the earliest event (moved out, never copied).
  [[nodiscard]] Entry pop() {
    Entry out = std::move(heap_.front());
    if (heap_.size() > 1) {
      heap_.front() = std::move(heap_.back());
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    return out;
  }

  /// Drop every entry and restart sequence numbering at `first_seq`; the
  /// backing vector's capacity is retained (the engine-reuse path).
  void reset(std::uint64_t first_seq = 0) noexcept {
    heap_.clear();
    next_seq_ = first_seq;
  }

  void reserve(std::size_t capacity) { heap_.reserve(capacity); }

  [[nodiscard]] std::uint64_t scheduled_total() const noexcept {
    return next_seq_;
  }

  /// Raw heap array in storage order, for checkpointing.  Restoring the
  /// entries verbatim reproduces the exact same heap -- and therefore the
  /// identical pop order -- because the array already satisfies the heap
  /// property it was serialized with.
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return heap_;
  }
  void restore(std::vector<Entry> entries, std::uint64_t next_seq) {
    heap_ = std::move(entries);
    next_seq_ = next_seq;
  }

 private:
  /// Min-heap ordering: earliest time first, FIFO within equal times.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Both sifts percolate a hole: the moving entry is lifted out once and
  // displaced entries shift into the hole (one move per level instead of
  // std::swap's three), with a single placement at the final position.

  void sift_up(std::size_t i) {
    Entry e = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(e);
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    Entry e = std::move(heap_[i]);
    while (true) {
      const std::size_t first_child = i * Arity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end_child = std::min(first_child + Arity, n);
      for (std::size_t c = first_child + 1; c < end_child; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], e)) break;
      heap_[i] = std::move(heap_[best]);
      i = best;
    }
    heap_[i] = std::move(e);
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

/// The closure calendar des::Simulator runs on.
using Calendar = BasicCalendar<EventFn>;
using Event = Calendar::Entry;

}  // namespace risa::des
