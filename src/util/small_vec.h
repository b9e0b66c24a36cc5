// Inline-capacity vector for the protocol hot path.
//
// The simulator copies many tiny sequences — level-stamp digit strings,
// ancestor chains, argument lists, prim operands — whose lengths almost
// never exceed a handful. std::vector heap-allocates every non-empty copy;
// SmallVec keeps up to N elements in the object itself and only touches the
// heap beyond that. Trivially copyable element types relocate via memcpy;
// other types (lang::Value and friends) move element-wise. Moves are
// noexcept whenever T's are, which is what the move-only envelope and
// event-queue machinery requires.
//
// Layout: the inline bytes double as the heap pointer once the contents
// spill (capacity > N says which), and size and capacity are 16-bit, so the
// header costs 4 bytes over the inline elements. A vector can therefore hold
// at most kMaxSize elements; growing past that throws std::length_error.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace splice::util {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(N > 0);
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "SmallVec relocation must not throw");

 public:
  /// Size and capacity are 16-bit.
  static constexpr std::size_t kMaxSize = UINT16_MAX;
  static_assert(N < kMaxSize);

  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  // Every constructor starts here: the pointer bytes begin defined, so no
  // path reads indeterminate storage (and GCC's -Wmaybe-uninitialized can
  // see it). One 8-byte store.
  SmallVec() noexcept { set_heap(nullptr); }
  SmallVec(std::initializer_list<T> init) : SmallVec() {
    reserve(init.size());
    for (const T& v : init) emplace_unchecked(v);
  }
  template <typename It>
  SmallVec(It first, It last) : SmallVec() {
    for (; first != last; ++first) push_back(*first);
  }

  SmallVec(const SmallVec& other) : SmallVec() {
    reserve(other.size_);
    for (const T& v : other) emplace_unchecked(v);
  }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear();
      reserve(other.size_);
      for (const T& v : other) emplace_unchecked(v);
    }
    return *this;
  }

  SmallVec(SmallVec&& other) noexcept : SmallVec() { steal(other); }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      clear();
      release_heap();
      steal(other);
    }
    return *this;
  }

  ~SmallVec() {
    clear();
    release_heap();
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] T* data() noexcept {
    return spilled() ? heap() : inline_data();
  }
  [[nodiscard]] const T* data() const noexcept {
    return spilled() ? heap() : inline_data();
  }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] T& back() noexcept { return data()[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data()[size_ - 1]; }

  [[nodiscard]] iterator begin() noexcept { return data(); }
  [[nodiscard]] iterator end() noexcept { return data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size_; }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      // `value` may alias an element of this container; detach it before
      // growth relocates the storage (same hazard std::vector guards).
      T detached(value);
      grow(std::size_t{size_} + 1);
      ::new (static_cast<void*>(data() + size_)) T(std::move(detached));
    } else {
      ::new (static_cast<void*>(data() + size_)) T(value);
    }
    ++size_;
  }
  void push_back(T&& value) {
    if (size_ == capacity_) {
      T detached(std::move(value));
      grow(std::size_t{size_} + 1);
      ::new (static_cast<void*>(data() + size_)) T(std::move(detached));
    } else {
      ::new (static_cast<void*>(data() + size_)) T(std::move(value));
    }
    ++size_;
  }

  void pop_back() noexcept {
    assert(size_ > 0);
    data()[--size_].~T();
  }

  void clear() noexcept {
    std::destroy_n(data(), size_);
    size_ = 0;
  }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  void assign(std::size_t n, const T& value) {
    clear();
    reserve(n);
    for (std::size_t i = 0; i < n; ++i) emplace_unchecked(value);
  }

  void resize(std::size_t n, const T& fill = T{}) {
    if (n < size_) {
      std::destroy_n(data() + n, size_ - n);
      size_ = static_cast<std::uint16_t>(n);
      return;
    }
    reserve(n);
    while (size_ < n) emplace_unchecked(fill);
  }

  /// Give back the heap cell if the contents fit inline again (mirrors the
  /// argument trimming of a resolved call slot in the runtime).
  void shrink_to_fit() noexcept {
    if (!spilled() || size_ > N) return;
    T* cell = heap();  // read before the elements overwrite the pointer
    relocate_n(cell, size_, inline_data());
    capacity_ = N;
    ::operator delete(cell);
  }

  [[nodiscard]] bool operator==(const SmallVec& other) const {
    return size_ == other.size_ && std::equal(begin(), end(), other.begin());
  }
  [[nodiscard]] bool operator<(const SmallVec& other) const {
    return std::lexicographical_compare(begin(), end(), other.begin(),
                                        other.end());
  }

 private:
  [[nodiscard]] bool spilled() const noexcept { return capacity_ > N; }
  // The pointer may sit at alignof(T) < alignof(T*); memcpy reads it safely.
  [[nodiscard]] T* heap() const noexcept {
    T* cell = nullptr;
    std::memcpy(static_cast<void*>(&cell), storage_, sizeof cell);
    return cell;
  }
  void set_heap(T* cell) noexcept {
    std::memcpy(storage_, static_cast<const void*>(&cell), sizeof cell);
  }

  [[nodiscard]] T* inline_data() noexcept {
    return std::launder(reinterpret_cast<T*>(storage_));
  }
  [[nodiscard]] const T* inline_data() const noexcept {
    return std::launder(reinterpret_cast<const T*>(storage_));
  }

  void emplace_unchecked(const T& v) {
    ::new (static_cast<void*>(data() + size_)) T(v);
    ++size_;
  }

  // Move `n` elements from src to (uninitialized) dst, destroying src.
  static void relocate_n(T* src, std::size_t n, T* dst) noexcept {
    if constexpr (std::is_trivially_copyable_v<T>) {
      std::memcpy(static_cast<void*>(dst), static_cast<const void*>(src),
                  sizeof(T) * n);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        ::new (static_cast<void*>(dst + i)) T(std::move(src[i]));
        src[i].~T();
      }
    }
  }

  // Requires *this empty and inline.
  void steal(SmallVec& other) noexcept {
    size_ = other.size_;
    if (other.spilled()) {
      set_heap(other.heap());
      capacity_ = other.capacity_;
    } else {
      relocate_n(other.inline_data(), size_, inline_data());
    }
    other.size_ = 0;
    other.capacity_ = N;
  }

  void grow(std::size_t n) {
    if (n > kMaxSize) {
      throw std::length_error("SmallVec: more than 65535 elements");
    }
    const std::size_t cap =
        std::min(std::max(n, std::size_t{capacity_} * 2), kMaxSize);
    T* fresh = static_cast<T*>(::operator new(sizeof(T) * cap));
    relocate_n(data(), size_, fresh);
    release_heap();
    set_heap(fresh);
    capacity_ = static_cast<std::uint16_t>(cap);
  }

  void release_heap() noexcept {
    if (spilled()) ::operator delete(heap());
    capacity_ = N;
  }

  // Inline elements, or the heap pointer once spilled.
  alignas(T) std::byte storage_[std::max(sizeof(T) * N, sizeof(T*))];
  // 16-bit bookkeeping: these sequences are tiny by design, and the smaller
  // header keeps packet/envelope relocation cheap.
  std::uint16_t size_ = 0;
  std::uint16_t capacity_ = N;
};

}  // namespace splice::util
