// LadderCalendar: an O(1)-amortized bucketed priority queue keyed on
// (time, seq), with a pop order provably identical to BasicCalendar's
// d-ary heap (DESIGN.md §12).
//
// Three tiers, earliest times lowest:
//
//   bottom  -- a fully sorted run of imminent events (ascending storage
//              with a dequeue cursor, so pop() is a cursor bump); drained
//              before any bucket is read.
//   rungs   -- up to kMaxRungs arrays of time buckets.  Rung i+1 is spawned
//              lazily on dequeue by re-bucketing rung i's current bucket at
//              a finer width; small or degenerate (all-equal-time) buckets
//              are sorted straight into bottom instead.
//   top     -- an unsorted epoch of far-future events.  When every lower
//              tier is empty, the whole epoch is bucketed into a fresh rung
//              (or sorted into bottom when small) and `top_start_` advances
//              to the epoch's max time, so later pushes split cleanly.
//
// Pushes append to top when time >= top_start_, else land in the first
// (coarsest) rung whose bucketing function maps the time at or past the
// rung's dequeue cursor, else insertion-sort into bottom.  Every tier move
// sorts by (time, seq), so ties pop FIFO exactly like the heap.
//
// In-order epochs: when every VM outlives none before it (a fixed or
// nondecreasing lifetime), each push lands at or after every pending one.
// A flag records whether the current epoch was appended that way (one
// compare per push against top_max_); such an epoch is already its own
// (time, seq) sort, so surface() swaps its buffer into bottom whole -- no
// rung, no sort, no bucket buffer.  A push below top_start_ that finds a
// long run of distinct times in bottom and no rung first buckets the run's
// rest into a rung, as surface() would have bucketed the epoch, so traffic
// out of order (retries, migration sweeps, fault actions, trace lifetimes,
// a restored epoch that is not sorted) pays what it paid before and never
// an O(run) insertion shift.
//
// Order-identity argument (the differential tests in
// tests/test_ladder_calendar.cpp pin it): within a rung, the bucket index
// idx(t) = clamp(floor((t - start) / width)) is a deterministic
// nondecreasing function of t -- so bucket a's times never exceed bucket
// b's for a < b, and equal times always share a bucket (never split across
// a tier boundary).  An entry is routed below a rung's cursor -- to a finer
// rung or to bottom -- only when idx(t) < cur, the same test every resident
// of those lower tiers once passed, so lower tiers hold strictly earlier
// times.  Draining bottom, then rungs finest to
// coarsest bucket by bucket, then top therefore emits a globally sorted
// (time, seq) sequence.  The comparisons use only idx(t) itself (never a
// separately computed bucket boundary), which keeps the argument exact
// under floating-point rounding: monotonicity of idx is all that is needed.
// An epoch taken whole needs no bucketing at all: appended with
// nondecreasing times and rising seqs, it is sorted as it stands, and
// re-bucketing the rest of such a run is the same move as bucketing an
// epoch, over entries that all precede top_start_.
//
// Like BasicCalendar, the structure never schedules into the past: pushes
// at or after the last popped (time, seq) are the engine's contract, and
// equal-time pushes during a drain insert into bottom behind their already
// popped predecessors (their seq is larger, so FIFO order is preserved).
//
// Retained capacity: in-order epochs use only top's and bottom's buffers,
// which trade places at each epoch.  A bucket holds a buffer only while it
// has residents.  Draining a bucket (into bottom, which never takes a
// bucket's buffer, or into a finer rung) hands its buffer to a spare pool,
// and the next empty bucket to receive a push takes it from there -- so
// buffers circulate across buckets and rung respawns instead of each of up
// to kMaxBuckets buckets keeping its own.  A taken epoch's run that is
// re-bucketed gives up bottom's buffer the same way.  The pool keeps only
// small buffers (<= kMaxSpareCapacity entries) and at most four times the
// peak size() in entries, freeing the rest, so retained capacity follows
// the pending population rather than buckets x largest-bucket (DESIGN.md
// §12).
//
// Checkpointing serializes the *sorted* entry sequence (sorted_entries());
// restore() accepts entries in any order -- it reloads them as a fresh top
// epoch with top_start_ = -inf, which is exactly the state of a calendar
// whose every entry was pushed and none popped, so a v1 checkpoint's
// verbatim heap array restores bit-identically too (DESIGN.md §12); a
// sorted snapshot is flagged in order, like an epoch pushed that way.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "des/event.hpp"

namespace risa::des {

template <typename Payload>
class LadderCalendar {
 public:
  struct Entry {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    Payload payload{};
  };

  void push(SimTime time, Payload payload) {
    Entry e{time, next_seq_++, std::move(payload)};
    peak_size_ = std::max(peak_size_, ++size_);
    if (e.time >= top_start_) {
      // seq rises with every push, so a nondecreasing time keeps the epoch
      // in (time, seq) order.
      top_sorted_ = top_sorted_ && e.time >= top_max_;
      top_min_ = std::min(top_min_, e.time);
      top_max_ = std::max(top_max_, e.time);
      top_.push_back(std::move(e));
      return;
    }
    if (nrungs_ == 0) rebucket_bottom();
    for (std::size_t i = 0; i < nrungs_; ++i) {
      Rung& r = rungs_[i];
      const std::size_t idx = r.bucket_index(e.time);
      if (idx >= r.cur) {
        bucket_push(r.buckets[idx], std::move(e));
        ++r.count;
        return;
      }
    }
    // Earlier than every pending bucket: insertion-sort into the sorted
    // bottom run, behind its dequeue cursor.  Ascending storage makes the
    // hot tie-storm case -- a push at the current minimum time, which
    // carries the largest seq of its equal-time run -- an append at (or
    // near) the end, not an O(run) front shift.
    const auto pos = std::upper_bound(
        bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_pos_),
        bottom_.end(), e, before);
    bottom_.insert(pos, std::move(e));
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Earliest pending (time, seq) entry.  May surface a bucket into the
  /// sorted bottom tier first, hence non-const (amortized into pop cost).
  [[nodiscard]] SimTime next_time() {
    if (bottom_pos_ >= bottom_.size()) surface();
    return bottom_[bottom_pos_].time;
  }
  [[nodiscard]] const Entry& top() {
    if (bottom_pos_ >= bottom_.size()) surface();
    return bottom_[bottom_pos_];
  }

  /// Remove and return the earliest event (moved out, never copied).
  [[nodiscard]] Entry pop() {
    assert(size_ > 0);
    if (bottom_pos_ >= bottom_.size()) surface();
    Entry out = std::move(bottom_[bottom_pos_++]);
    if (bottom_pos_ >= bottom_.size()) {
      bottom_.clear();  // capacity retained
      bottom_pos_ = 0;
    }
    if (--size_ == 0) {
      // Fully drained: discard exhausted rung shells so the next epoch
      // starts clean, and reopen top as the universal push catchment.
      for (std::size_t i = 0; i < nrungs_; ++i) rungs_[i].clear();
      nrungs_ = 0;
      rearm_empty();
    }
    return out;
  }

  /// Drop every entry and restart sequence numbering at `first_seq`; all
  /// backing storage capacity is retained (the engine-reuse path).
  void reset(std::uint64_t first_seq = 0) noexcept {
    bottom_.clear();
    bottom_pos_ = 0;
    top_.clear();
    for (std::size_t i = 0; i < nrungs_; ++i) rungs_[i].clear();
    nrungs_ = 0;
    size_ = 0;
    rearm_empty();
    next_seq_ = first_seq;
  }

  void reserve(std::size_t capacity) {
    top_.reserve(capacity);
    bottom_.reserve(std::min<std::size_t>(capacity, kBottomThreshold * 4));
  }

  [[nodiscard]] std::uint64_t scheduled_total() const noexcept {
    return next_seq_;
  }

  /// Entries of buffer capacity held across every tier and the spare pool
  /// (tests and bench_calendar check the retained-capacity bound with it).
  [[nodiscard]] std::size_t retained_capacity() const noexcept {
    std::size_t n = bottom_.capacity() + top_.capacity();
    for (const Rung& r : rungs_) {
      for (const std::vector<Entry>& b : r.buckets) n += b.capacity();
    }
    for (const std::vector<Entry>& b : spare_) n += b.capacity();
    return n;
  }

  /// Every pending entry in ascending (time, seq) order -- the canonical
  /// checkpoint serialization (tier structure is an implementation detail;
  /// DESIGN.md §12).
  [[nodiscard]] std::vector<Entry> sorted_entries() const {
    std::vector<Entry> out;
    out.reserve(size_);
    out.insert(out.end(),
               bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_pos_),
               bottom_.end());
    for (std::size_t i = 0; i < nrungs_; ++i) {
      const Rung& r = rungs_[i];
      for (std::size_t b = r.cur; b < r.nbuckets; ++b) {
        out.insert(out.end(), r.buckets[b].begin(), r.buckets[b].end());
      }
    }
    out.insert(out.end(), top_.begin(), top_.end());
    std::sort(out.begin(), out.end(),
              [](const Entry& a, const Entry& b) { return before(a, b); });
    return out;
  }

  /// Reload from serialized entries (any order: sorted canonical form or a
  /// v1 checkpoint's verbatim heap array) and continue numbering at
  /// `next_seq`.  The entries become a fresh top epoch with top_start_ =
  /// -inf -- the state of a calendar that pushed everything and popped
  /// nothing -- so the continued pop order is identical by the general
  /// order argument above.
  void restore(std::vector<Entry> entries, std::uint64_t next_seq) {
    reset(next_seq);
    size_ = entries.size();
    peak_size_ = std::max(peak_size_, size_);
    top_ = std::move(entries);
    for (const Entry& e : top_) {
      top_min_ = std::min(top_min_, e.time);
      top_max_ = std::max(top_max_, e.time);
    }
    top_sorted_ = std::is_sorted(top_.begin(), top_.end(), before);
  }

 private:
  /// Below this population a bucket (or top epoch) is sorted straight into
  /// bottom instead of spawning a finer rung.
  static constexpr std::size_t kBottomThreshold = 48;
  static constexpr std::size_t kMaxRungs = 8;
  static constexpr std::size_t kMinBuckets = 8;
  static constexpr std::size_t kMaxBuckets = 4096;
  /// Larger drained bucket buffers are freed rather than pooled: a pooled
  /// buffer may land in a bucket that only ever holds one entry.
  static constexpr std::size_t kMaxSpareCapacity = 128;
  static constexpr std::size_t kFreshBucketCapacity = 8;

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  struct Rung {
    double start = 0.0;
    double width = 1.0;
    std::size_t cur = 0;       ///< dequeue cursor: buckets < cur are drained
    std::size_t nbuckets = 0;  ///< buckets in use this spawn
    std::size_t count = 0;     ///< entries resident in buckets >= cur
    std::vector<std::vector<Entry>> buckets;  ///< capacity reused across spawns

    /// clamp(floor((t - start) / width)): deterministic and nondecreasing
    /// in t, the only property the order argument relies on.  The clamp is
    /// computed in double so a far-future time cannot overflow the cast.
    [[nodiscard]] std::size_t bucket_index(double t) const noexcept {
      const double q = std::floor((t - start) / width);
      if (!(q > 0.0)) return 0;
      const double last = static_cast<double>(nbuckets - 1);
      return q >= last ? nbuckets - 1 : static_cast<std::size_t>(q);
    }

    void clear() noexcept {
      for (std::size_t b = 0; b < nbuckets; ++b) buckets[b].clear();
      cur = 0;
      nbuckets = 0;
      count = 0;
    }
  };

  void rearm_empty() noexcept {
    // Everything drained: future pushes may carry any time, so reopen top
    // as the universal catchment (cheapest tier to land in).
    top_start_ = -std::numeric_limits<double>::infinity();
    top_min_ = std::numeric_limits<double>::infinity();
    top_max_ = -std::numeric_limits<double>::infinity();
    top_sorted_ = true;
  }

  /// Append to a rung bucket, first giving an empty buffer-less bucket a
  /// pooled buffer, or a fresh one with room for a few entries (skipping
  /// the 1-2-4 growth steps most buckets would otherwise take).
  void bucket_push(std::vector<Entry>& b, Entry&& e) {
    if (b.capacity() == 0) {
      if (spare_.empty()) {
        b.reserve(kFreshBucketCapacity);
      } else {
        b = std::move(spare_.back());
        spare_.pop_back();
        spare_entries_ -= b.capacity();
      }
    }
    b.push_back(std::move(e));
  }

  /// Hand a drained bucket's buffer to the spare pool, or free it when it
  /// is large or the pool already holds 4 * peak size() entries of
  /// capacity.  The bound is the high-water mark, not the current size, so
  /// a calendar draining to empty keeps its buffers for the next fill (the
  /// engine-reuse path) instead of freeing them as the census falls.
  void recycle(std::vector<Entry>& b) {
    assert(b.empty());
    const std::size_t cap = b.capacity();
    if (cap == 0) return;
    if (cap <= kMaxSpareCapacity && spare_entries_ + cap <= 4 * peak_size_) {
      spare_entries_ += cap;
      spare_.push_back(std::move(b));
    }
    std::vector<Entry>().swap(b);  // frees b, or resets the moved-from shell
  }

  /// Copy `src` (unsorted) into bottom's own buffer as the new bottom tier,
  /// sorted ascending with the dequeue cursor at the minimum; `src` is
  /// left empty.  Bottom trades buffers only with top (an in-order epoch
  /// taken whole), never with a bucket, so the two buffers' capacities stay
  /// bounded by the largest run or epoch either has held.
  void sort_into_bottom(std::vector<Entry>& src) {
    assert(bottom_pos_ >= bottom_.size());
    bottom_.assign(std::make_move_iterator(src.begin()),
                   std::make_move_iterator(src.end()));
    src.clear();
    bottom_pos_ = 0;
    std::sort(bottom_.begin(), bottom_.end(), before);
  }

  /// Spawn a fresh rung over the [lo, hi] span of [first, last) and move
  /// those entries into its buckets.  Returns false, touching nothing, when
  /// the span underflows the bucket width (hi - lo denormal-tiny): a finer
  /// width cannot split it, so the caller keeps the entries in bottom.
  bool spawn_rung(Entry* first, Entry* last, double lo, double hi) {
    assert(nrungs_ < kMaxRungs && lo < hi);
    const auto n = static_cast<std::size_t>(last - first);
    const std::size_t want = std::clamp(n, kMinBuckets, kMaxBuckets);
    const double width = (hi - lo) / static_cast<double>(want);
    if (!(width > 0.0)) return false;
    Rung& r = rungs_[nrungs_++];
    if (r.buckets.size() < want) r.buckets.resize(want);
    r.start = lo;
    r.width = width;
    r.cur = 0;
    r.nbuckets = want;
    r.count = n;
    for (; first != last; ++first) {
      bucket_push(r.buckets[r.bucket_index(first->time)], std::move(*first));
    }
    return true;
  }

  /// Bucket an unsorted buffer into a fresh rung, or sort it into bottom
  /// when its span underflows; `src` is left empty either way.
  void spawn_rung_or_sort(std::vector<Entry>& src, double lo, double hi) {
    if (spawn_rung(src.data(), src.data() + src.size(), lo, hi)) {
      src.clear();
    } else {
      sort_into_bottom(src);
    }
  }

  /// A push is about to land below top_start_ with no rung live.  If bottom
  /// holds a long run of distinct times -- an in-order epoch taken whole --
  /// bucket its pending rest into a rung first, as surface() would have
  /// bucketed the epoch, so the push (and any that follow it) costs a
  /// bucket append, not an O(run) insertion shift.  A short run, a tie
  /// storm or an underflowing span stays in bottom, as surface() keeps it.
  /// The emptied run buffer goes to the spare pool when small and is freed
  /// otherwise: kept as bottom's, it would sit idle beside the rung holding
  /// the run's rest and top filling the next epoch.
  void rebucket_bottom() {
    if (bottom_.size() - bottom_pos_ <= kBottomThreshold) return;
    const double lo = bottom_[bottom_pos_].time, hi = bottom_.back().time;
    if (lo == hi) return;
    if (spawn_rung(bottom_.data() + bottom_pos_,
                   bottom_.data() + bottom_.size(), lo, hi)) {
      bottom_.clear();
      bottom_pos_ = 0;
      recycle(bottom_);
    }
  }

  /// Make bottom non-empty.  Precondition: size_ > 0, bottom drained.
  /// Kept out of line so the dequeue fast path (a cursor bump) inlines
  /// into its caller without it: inlined, it cost bench_calendar's
  /// tie_heavy rows ~15%.
  [[gnu::noinline]] void surface() {
    assert(size_ > 0);
    while (bottom_pos_ >= bottom_.size()) {
      if (nrungs_ > 0) {
        Rung& r = rungs_[nrungs_ - 1];
        while (r.cur < r.nbuckets && r.buckets[r.cur].empty()) ++r.cur;
        if (r.cur >= r.nbuckets) {
          assert(r.count == 0);
          r.clear();
          --nrungs_;
          continue;
        }
        std::vector<Entry>& b = r.buckets[r.cur];
        r.count -= b.size();
        ++r.cur;  // residents of this bucket move down, never back
        if (b.size() <= kBottomThreshold || nrungs_ >= kMaxRungs) {
          sort_into_bottom(b);
          recycle(b);
          continue;
        }
        double lo = b.front().time, hi = b.front().time;
        for (const Entry& e : b) {
          lo = std::min(lo, e.time);
          hi = std::max(hi, e.time);
        }
        if (lo == hi) {
          sort_into_bottom(b);  // tie storm: a finer width cannot split it
        } else {
          spawn_rung_or_sort(b, lo, hi);
        }
        recycle(b);
      } else {
        // Lower tiers empty: the top epoch is everything pending.
        assert(!top_.empty());
        const double lo = top_min_, hi = top_max_;
        top_start_ = hi;  // later pushes at >= hi start the next epoch
        top_min_ = std::numeric_limits<double>::infinity();
        top_max_ = -std::numeric_limits<double>::infinity();
        if (top_sorted_) {
          // Appended in (time, seq) order: the epoch already is bottom's
          // sorted run.  Take its buffer whole; top keeps bottom's drained
          // one for the next epoch.
          bottom_.swap(top_);
          top_.clear();
          bottom_pos_ = 0;
        } else if (top_.size() <= kBottomThreshold || lo == hi) {
          sort_into_bottom(top_);
        } else {
          spawn_rung_or_sort(top_, lo, hi);
        }
        top_sorted_ = true;
      }
    }
  }

  std::vector<Entry> bottom_;   ///< sorted ascending from bottom_pos_
  std::size_t bottom_pos_ = 0;  ///< dequeue cursor; [pos, size) is pending
  std::array<Rung, kMaxRungs> rungs_;
  std::size_t nrungs_ = 0;
  std::vector<Entry> top_;
  /// Empty buffers drained buckets gave up, for the next buckets to fill.
  std::vector<std::vector<Entry>> spare_;
  std::size_t spare_entries_ = 0;  ///< total capacity held in spare_
  double top_start_ = -std::numeric_limits<double>::infinity();
  double top_min_ = std::numeric_limits<double>::infinity();
  double top_max_ = -std::numeric_limits<double>::infinity();
  bool top_sorted_ = true;  ///< top_ was appended in (time, seq) order
  std::size_t size_ = 0;
  std::size_t peak_size_ = 0;  ///< high-water mark of size_, never reset
  std::uint64_t next_seq_ = 0;
};

}  // namespace risa::des
