// Runtime values of the applicative language.
//
// Two cases suffice for every workload in the paper's setting: 64-bit
// integers and flat integer lists (for the sorting/merging programs).
// Lists are shared immutably (copy = pointer copy), which matches
// applicative semantics: no destructive modification ever happens.
//
// A Value is 16 bytes: the integer and a pointer to the list's cell, which
// carries its own reference count. Every live task, argument list, result
// and packet holds Values, so they stay one pointer wide. The count is
// atomic: a list built on one shard's thread is copied and released on
// others.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace splice::lang {

class Value {
 public:
  /// Default-constructed value is the integer 0.
  Value() noexcept = default;
  Value(const Value& other) noexcept : int_(other.int_), list_(other.list_) {
    if (list_ != nullptr) list_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Value(Value&& other) noexcept
      : int_(other.int_), list_(std::exchange(other.list_, nullptr)) {}
  Value& operator=(const Value& other) noexcept {
    Value copy(other);
    swap(copy);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    Value taken(std::move(other));
    swap(taken);
    return *this;
  }
  ~Value() { release(); }

  [[nodiscard]] static Value integer(std::int64_t v) { return Value(v); }
  [[nodiscard]] static Value list(std::vector<std::int64_t> items) {
    return Value(new ListCell{{1}, std::move(items)});
  }
  [[nodiscard]] static Value boolean(bool b) { return Value(b ? 1 : 0); }

  [[nodiscard]] bool is_int() const noexcept { return list_ == nullptr; }
  [[nodiscard]] bool is_list() const noexcept { return list_ != nullptr; }

  /// Requires is_int().
  [[nodiscard]] std::int64_t as_int() const;
  /// Requires is_list().
  [[nodiscard]] const std::vector<std::int64_t>& as_list() const;

  /// Truthiness: nonzero integer or non-empty list.
  [[nodiscard]] bool truthy() const noexcept;

  /// Abstract wire size in network "units" (ints are 1; lists scale with
  /// length). Drives message latency.
  [[nodiscard]] std::uint32_t size_units() const noexcept;

  [[nodiscard]] bool operator==(const Value& other) const noexcept;
  [[nodiscard]] bool operator!=(const Value& other) const noexcept {
    return !(*this == other);
  }

  [[nodiscard]] std::string to_string() const;

 private:
  /// One immutable list and the number of Values that point at it.
  struct ListCell {
    std::atomic<std::size_t> refs;
    std::vector<std::int64_t> items;
  };

  explicit Value(std::int64_t v) noexcept : int_(v) {}
  explicit Value(ListCell* cell) noexcept : list_(cell) {}

  void swap(Value& other) noexcept {
    std::swap(int_, other.int_);
    std::swap(list_, other.list_);
  }
  // The last reference frees the cell; acq_rel orders every other holder's
  // reads of the items before the delete.
  void release() noexcept {
    if (list_ != nullptr &&
        list_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete list_;
    }
  }

  std::int64_t int_ = 0;
  ListCell* list_ = nullptr;
};

static_assert(sizeof(Value) == 16);

}  // namespace splice::lang
