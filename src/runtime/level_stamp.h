// Level stamps (§3.1 of the paper).
//
// "Assume that the root task carries a null level number, a task at level
//  one will bear a unique one digit identification. Tasks in subsequent
//  levels are stamped by appending one more digit to the number of their
//  parents."
//
// A stamp is the path of call-site identifiers from the root; uniqueness is
// guaranteed by program structure, not by time. Digits are the ExprId of
// the Call node in the parent's body, which makes the stamp of a recovery
// twin's children equal to the stamps of the dead task's children — the
// property splice recovery keys on.
//
// Stamps ride in every protocol message and every task and checkpoint
// record, so their digit strings live in a small-buffer vector: copying a
// stamp of depth <= kInlineDepth costs zero heap allocations. Depth 15 covers
// a 65,535-task binary tree (perfbench's `one-crash`); deeper programs still
// work, at one allocation per stamp copy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/small_vec.h"

namespace splice::runtime {

using StampDigit = std::uint32_t;

class LevelStamp {
 public:
  /// Digit strings up to this depth are stored inline (no heap). 15 digits
  /// plus SmallVec's 4-byte header fill exactly one cache line.
  static constexpr std::size_t kInlineDepth = 15;
  using Digits = util::SmallVec<StampDigit, kInlineDepth>;

  /// Root stamp: the null (empty) level number.
  LevelStamp() = default;
  explicit LevelStamp(Digits digits) : digits_(std::move(digits)) {}

  [[nodiscard]] static LevelStamp root() { return LevelStamp{}; }

  /// Stamp of the child spawned from call site `digit`.
  [[nodiscard]] LevelStamp child(StampDigit digit) const;

  /// Stamp of the parent. Requires !is_root().
  [[nodiscard]] LevelStamp parent() const;

  /// Stamp of the ancestor at `depth` (digit-string prefix of that length).
  /// Requires depth <= depth().
  [[nodiscard]] LevelStamp truncated(std::size_t depth) const;

  [[nodiscard]] bool is_root() const noexcept { return digits_.empty(); }
  [[nodiscard]] std::size_t depth() const noexcept { return digits_.size(); }
  [[nodiscard]] const Digits& digits() const noexcept { return digits_; }
  [[nodiscard]] StampDigit last() const { return digits_.back(); }

  /// Strict ancestor test: *this is a proper prefix of other.
  [[nodiscard]] bool is_ancestor_of(const LevelStamp& other) const noexcept;
  /// Strict descendant test.
  [[nodiscard]] bool is_descendant_of(const LevelStamp& other) const noexcept {
    return other.is_ancestor_of(*this);
  }
  /// Ancestor-or-equal.
  [[nodiscard]] bool subsumes(const LevelStamp& other) const noexcept {
    return *this == other || is_ancestor_of(other);
  }

  /// Length of the longest common prefix (tree distance helper).
  [[nodiscard]] std::size_t common_prefix(const LevelStamp& other)
      const noexcept;

  [[nodiscard]] bool operator==(const LevelStamp&) const = default;
  /// Lexicographic; gives a deterministic total order for containers.
  [[nodiscard]] bool operator<(const LevelStamp& other) const noexcept {
    return digits_ < other.digits_;
  }

  /// Wire size in abstract units (a stamp is a handful of integers).
  [[nodiscard]] std::uint32_t size_units() const noexcept { return 1; }

  [[nodiscard]] std::string to_string() const;

  struct Hash {
    [[nodiscard]] std::size_t operator()(const LevelStamp& s) const noexcept;
  };

 private:
  Digits digits_;
};

// Stamps are embedded in every task, packet, journal event and checkpoint
// record: a deeper inline buffer must not grow them past one cache line.
static_assert(sizeof(LevelStamp) == 64);

}  // namespace splice::runtime
