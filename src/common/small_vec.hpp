// A vector with inline storage for the first N elements.
//
// SmallVec<T, N> keeps its first N elements inline and spills to one owned
// heap buffer past that.  The placement hot path builds several tiny
// sequences per VM whose sizes are bounded in practice (brick slices per
// box allocation, bricks per box), so storing them inline removes the
// per-VM heap round-trips; pathological configurations (a box with
// hundreds of bricks, an allocation fragmented across many of them) spill
// transparently.  The heap pointer overlays the inline array (a vector is
// spilled exactly when its capacity exceeds N), so the bookkeeping is a u32
// size/capacity pair -- 8 bytes on top of the inline array -- because
// these vectors sit in every live VM's record (DESIGN.md §13).
//
// The inline array is raw storage: an element exists only below size(),
// built by the push that appends it, so constructing, clearing or
// resetting a vector writes its two counters and nothing else.  A value-
// built std::array<T, N> would construct all N on every reset -- two
// 48-byte circuits per circuit-table slot, six brick slices per placement.
// The default constructor is user-provided for the same reason: a defaulted
// one would let value-initialisation (T{}, std::construct_at) zero the
// whole array first.
//
// Restricted to trivially copyable element types, which keeps the
// implementation a simple memcpy-able buffer; every current use site
// (Units, BrickSlice, Circuit) satisfies this.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace risa {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is limited to trivially copyable types");
  static_assert(N >= 1 && N <= std::numeric_limits<std::uint32_t>::max());

 public:
  SmallVec() noexcept {}  // user-provided on purpose: see the header
  SmallVec(const SmallVec& other) { append(other.data(), other.size_); }
  SmallVec(SmallVec&& other) noexcept { take(other); }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      size_ = 0;
      append(other.data(), other.size_);
    }
    return *this;
  }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      release_heap();
      take(other);
    }
    return *this;
  }
  ~SmallVec() { release_heap(); }

  void push_back(const T& value) {
    const T copy = value;  // `value` may alias the buffer grow() frees
    emplace_back(copy);
  }

  /// Build an element in place at the end from `args`, which must not
  /// refer into this vector (a spill frees the buffer they would read).
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow(std::size_t{capacity_} + 1);
    T* slot = std::construct_at(data() + size_, std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() noexcept { --size_; }

  /// Empty the vector and return to inline storage (a spilled buffer is
  /// freed, so a cleared record holds no heap memory).
  void clear() noexcept {
    release_heap();
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// True once the elements live in the heap buffer rather than inline.
  [[nodiscard]] bool spilled() const noexcept { return capacity_ > N; }

  // The inline pointer is laundered so GCC's -Warray-bounds cannot tie it
  // to the inline array on paths it fails to prove dead: after a move from
  // a spilled vector it otherwise flags v[i], i >= N, as reading past the
  // object even though such an index only ever reaches the heap buffer.
  [[nodiscard]] T* data() noexcept {
    return spilled() ? heap_ : std::launder(reinterpret_cast<T*>(inline_));
  }
  [[nodiscard]] const T* data() const noexcept {
    return spilled() ? heap_
                     : std::launder(reinterpret_cast<const T*>(inline_));
  }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] T& front() noexcept { return data()[0]; }
  [[nodiscard]] const T& front() const noexcept { return data()[0]; }
  [[nodiscard]] T& back() noexcept { return data()[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data()[size_ - 1]; }

  [[nodiscard]] T* begin() noexcept { return data(); }
  [[nodiscard]] T* end() noexcept { return data() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data(); }
  [[nodiscard]] const T* end() const noexcept { return data() + size_; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  /// Reallocate to hold at least `min_capacity` elements (geometric
  /// growth), moving the current contents to the new heap buffer.
  void grow(std::size_t min_capacity) {
    const std::size_t cap =
        std::max<std::size_t>(min_capacity, 2 * std::size_t{capacity_});
    if (cap > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("SmallVec: capacity overflow");
    }
    T* fresh = std::allocator<T>{}.allocate(cap);
    // Copy out before heap_ is written: it overlays the inline elements.
    std::uninitialized_copy_n(data(), size_, fresh);
    release_heap();
    heap_ = fresh;
    capacity_ = static_cast<std::uint32_t>(cap);
  }

  void append(const T* src, std::uint32_t n) {
    if (n > capacity_) grow(n);
    std::uninitialized_copy_n(src, n, data());
    size_ = n;
  }

  /// Steal `other`'s heap buffer, or copy its inline elements; `other` is
  /// left empty and inline.  Precondition: this holds no heap buffer.
  void take(SmallVec& other) noexcept {
    if (other.spilled()) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.capacity_ = N;
    } else {
      std::uninitialized_copy_n(other.data(), other.size_, data());
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  void release_heap() noexcept {
    if (spilled()) std::allocator<T>{}.deallocate(heap_, capacity_);
    capacity_ = N;
  }

  // Storage for the inline elements while capacity_ == N (only the first
  // size_ are built), the heap buffer's address once spilled.
  union {
    alignas(T) std::byte inline_[N * sizeof(T)];
    T* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
};

}  // namespace risa
