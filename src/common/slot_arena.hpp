// Generation-stamped slot arena: a dense value slab + free list fronted by
// a paged u32 key -> slot directory.  It backs the engine's per-VM record
// table (DESIGN.md §13) and the circuit table (network/circuit.hpp,
// DESIGN.md §7.2), both keyed by workload index: indices are dense and
// arrive in a sliding window (old VMs depart as new ones arrive), so a
// direct paged index beats hashing on every per-event lookup -- no hash
// mix, no probe chain, no load-factor rehash -- while RSS stays bounded by
// the live census plus the key window, never the stream length.
//
// Layout:
//
//   slab       -- pages of {key, gen, value} slots (kSlabPageSize each),
//                 allocated once and never moved, so every reference
//                 find_or_insert() or find() hands out stays valid until
//                 that key is erased -- a contract no open-addressing hash
//                 map gives (a growth rehash moves *resident* entries);
//                 the engine's admission/retry paths lean on it.
//   free list  -- LIFO stack of vacant slot ids; steady-state churn
//                 (insert on admission, erase on departure) recycles slots
//                 with zero heap traffic.
//   directory  -- pages of kDirPageSize key->slot entries, allocated on
//                 first touch and recycled through a pool when their last
//                 key is erased, so a 10M-index stream with a few-thousand
//                 live census holds a handful of pages, not 10M entries.
//
// Generation stamps: every erase bumps the slot's `gen`, so a stale slot
// id (held across the value's death and the slot's reuse) is detectable --
// the differential tests pin slot reuse and stamp bumps explicitly.
//
// Key restriction: 0xFFFFFFFF is reserved as the vacant-slot key.  Keys
// index the directory directly: the arena is built for *dense* key spaces
// (the engine's workload indices), where max_key/kDirPageSize pointer
// cells of root vector are negligible.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace risa {

template <typename V>
class SlotArena {
 public:
  static constexpr std::uint32_t kEmptyKey = 0xFFFFFFFFu;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Value for `key`, default-constructed and inserted when absent.  The
  /// returned reference is STABLE: it remains valid across any number of
  /// later insertions/erasures, until `key` itself is erased.
  V& find_or_insert(std::uint32_t key) {
    check_key(key);
    DirPage& page = dir_page_for(key);
    std::uint32_t& entry = page.slot_of[key % kDirPageSize];
    if (entry != kNoSlot) return slot_ref(entry).value;
    const std::uint32_t s = acquire_slot();
    entry = s;
    ++page.occupancy;
    Slot& slot = slot_ref(s);
    slot.key = key;
    // Slots vacated by erase()/clear() keep a default value already; the
    // fresh assignment makes "every claimant gets V{}" hold by construction.
    slot.value = V{};
    ++size_;
    return slot.value;
  }

  [[nodiscard]] V* find(std::uint32_t key) noexcept {
    return const_cast<V*>(std::as_const(*this).find(key));
  }

  [[nodiscard]] const V* find(std::uint32_t key) const noexcept {
    const std::uint32_t s = slot_of(key);
    return s == kNoSlot ? nullptr : &slot_ref(s).value;
  }

  /// Remove `key`; returns false when absent.  Bumps the slot's generation
  /// stamp, releases the value eagerly, and recycles the directory page
  /// when its last key leaves (RSS tracks the live key window).
  bool erase(std::uint32_t key) {
    const std::uint32_t s = slot_of(key);
    if (s == kNoSlot) return false;
    Slot& slot = slot_ref(s);
    slot.key = kEmptyKey;
    slot.value = V{};  // release value-owned resources eagerly
    ++slot.gen;        // stamp: any reference held past this point is stale
    free_.push_back(s);
    const std::size_t pi = key / kDirPageSize;
    DirPage& page = *dir_[pi];
    page.slot_of[key % kDirPageSize] = kNoSlot;
    --size_;
    if (--page.occupancy == 0) {
      dir_pool_.push_back(std::move(dir_[pi]));
    }
    return true;
  }

  /// Drop every entry, retaining slab capacity and pooling every directory
  /// page.  The free list is rebuilt lowest-slot-on-top, so a reused arena
  /// assigns the same slot sequence as a fresh one.
  void clear() {
    for (auto& page : slab_pages_) {
      for (std::size_t i = 0; i < kSlabPageSize; ++i) {
        Slot& slot = page[i];
        if (slot.key != kEmptyKey) {
          slot.key = kEmptyKey;
          slot.value = V{};
          ++slot.gen;
        }
      }
    }
    const std::size_t cap = slab_pages_.size() * kSlabPageSize;
    free_.clear();
    free_.reserve(cap);
    for (std::size_t s = cap; s-- > 0;) {
      free_.push_back(static_cast<std::uint32_t>(s));
    }
    for (auto& page : dir_) {
      if (page != nullptr) dir_pool_.push_back(std::move(page));
    }
    size_ = 0;
  }

  /// Pre-size the slab for `n` concurrent entries (directory pages stay
  /// on-demand: which key range is live depends on the stream).
  void reserve(std::size_t n) {
    while (slab_pages_.size() * kSlabPageSize < n) append_slab_page();
    if (size_ == 0) {
      // Rebuild lowest-on-top so pre-sizing never perturbs the slot
      // sequence a growing arena would have assigned.
      const std::size_t cap = slab_pages_.size() * kSlabPageSize;
      free_.clear();
      free_.reserve(cap);
      for (std::size_t s = cap; s-- > 0;) {
        free_.push_back(static_cast<std::uint32_t>(s));
      }
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Invoke `fn(key, const V&)` for every entry, in slot (slab) order --
  /// unspecified to callers (the engine sorts collected indices before
  /// acting on them).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (size_ == 0) return;
    for (const auto& page : slab_pages_) {
      for (std::size_t i = 0; i < kSlabPageSize; ++i) {
        const Slot& slot = page[i];
        if (slot.key != kEmptyKey) fn(slot.key, slot.value);
      }
    }
  }

  // ---- introspection (tests; none of these sit on the engine hot path) --

  /// Slot id currently backing `key`, or kNoSlot.
  [[nodiscard]] std::uint32_t slot_of(std::uint32_t key) const noexcept {
    if (key == kEmptyKey) return kNoSlot;
    const std::size_t pi = key / kDirPageSize;
    if (pi >= dir_.size() || dir_[pi] == nullptr) return kNoSlot;
    return dir_[pi]->slot_of[key % kDirPageSize];
  }

  /// Generation stamp of slot `s` (bumped on every erase of that slot).
  [[nodiscard]] std::uint32_t slot_generation(std::uint32_t s) const noexcept {
    return slot_ref(s).gen;
  }

  [[nodiscard]] std::size_t slab_capacity() const noexcept {
    return slab_pages_.size() * kSlabPageSize;
  }
  [[nodiscard]] std::size_t directory_pages_live() const noexcept {
    std::size_t n = 0;
    for (const auto& page : dir_) n += page != nullptr ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::size_t directory_pages_pooled() const noexcept {
    return dir_pool_.size();
  }

 private:
  static constexpr std::size_t kSlabPageSize = 512;
  static constexpr std::size_t kDirPageSize = 4096;

  struct Slot {
    std::uint32_t key = kEmptyKey;
    std::uint32_t gen = 0;
    V value{};
  };

  struct DirPage {
    std::array<std::uint32_t, kDirPageSize> slot_of;
    std::uint32_t occupancy = 0;
  };

  static void check_key(std::uint32_t key) {
    if (key == kEmptyKey) {
      throw std::invalid_argument("SlotArena: key 0xFFFFFFFF is reserved");
    }
  }

  [[nodiscard]] Slot& slot_ref(std::uint32_t s) noexcept {
    return slab_pages_[s / kSlabPageSize][s % kSlabPageSize];
  }
  [[nodiscard]] const Slot& slot_ref(std::uint32_t s) const noexcept {
    return slab_pages_[s / kSlabPageSize][s % kSlabPageSize];
  }

  DirPage& dir_page_for(std::uint32_t key) {
    const std::size_t pi = key / kDirPageSize;
    if (pi >= dir_.size()) dir_.resize(pi + 1);
    if (dir_[pi] == nullptr) {
      if (!dir_pool_.empty()) {
        dir_[pi] = std::move(dir_pool_.back());
        dir_pool_.pop_back();
      } else {
        dir_[pi] = std::make_unique<DirPage>();
      }
      dir_[pi]->slot_of.fill(kNoSlot);
      dir_[pi]->occupancy = 0;
    }
    return *dir_[pi];
  }

  void append_slab_page() {
    const std::size_t base = slab_pages_.size() * kSlabPageSize;
    slab_pages_.push_back(std::make_unique<Slot[]>(kSlabPageSize));
    // Lowest-on-top: a draining free list hands out ascending slot ids.
    for (std::size_t i = kSlabPageSize; i-- > 0;) {
      free_.push_back(static_cast<std::uint32_t>(base + i));
    }
  }

  std::uint32_t acquire_slot() {
    if (free_.empty()) append_slab_page();
    const std::uint32_t s = free_.back();
    free_.pop_back();
    return s;
  }

  std::vector<std::unique_ptr<Slot[]>> slab_pages_;
  std::vector<std::uint32_t> free_;
  std::vector<std::unique_ptr<DirPage>> dir_;
  std::vector<std::unique_ptr<DirPage>> dir_pool_;
  std::size_t size_ = 0;
};

}  // namespace risa
