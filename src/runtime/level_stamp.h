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
// Stamps ride in every protocol message and every task, checkpoint record,
// journal event and durable-log entry, so a stamp is 32 bytes and copying
// the common one costs no heap allocation. A digit is an ExprId, and a
// function body has a few dozen nodes at most, so a stamp of depth <=
// kInlineDepth whose digits all fit in 16 bits keeps them inline as 16-bit
// lanes (the *narrow* form). Depth 15 covers a 65,535-task binary tree
// (perfbench's `one-crash`). A deeper stamp, or one with a digit above
// 65,535, keeps 32-bit digits in a heap cell of its own (the *wide* form),
// at one allocation per copy. The form is a function of the digits, so
// equal stamps always share it; two narrow stamps compare as bytes.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <string>

namespace splice::runtime {

using StampDigit = std::uint32_t;

class LevelStamp {
 public:
  /// Narrow stamps hold up to this many digits inline.
  static constexpr std::size_t kInlineDepth = 15;
  /// The deepest stamp (the codec's limit too): child() of a stamp this
  /// deep throws std::length_error.
  static constexpr std::size_t kMaxDepth = UINT16_MAX;

  /// Root stamp: the null (empty) level number.
  LevelStamp() = default;
  /// The stamp with these digits, root first. Throws std::length_error
  /// beyond kMaxDepth.
  explicit LevelStamp(std::span<const StampDigit> digits);

  LevelStamp(const LevelStamp& other) : rep_(other.rep_) {
    if (wide()) [[unlikely]] copy_cell();
  }
  LevelStamp(LevelStamp&& other) noexcept : rep_(other.rep_) {
    other.rep_ = Rep{};
  }
  LevelStamp& operator=(const LevelStamp& other) {
    if (wide() || other.wide()) [[unlikely]] {
      return *this = LevelStamp(other);
    }
    rep_ = other.rep_;
    return *this;
  }
  LevelStamp& operator=(LevelStamp&& other) noexcept {
    if (this != &other) {
      free_cell();
      rep_ = other.rep_;
      other.rep_ = Rep{};
    }
    return *this;
  }
  ~LevelStamp() { free_cell(); }

  [[nodiscard]] static LevelStamp root() { return LevelStamp{}; }

  /// Stamp of the child spawned from call site `digit`.
  [[nodiscard]] LevelStamp child(StampDigit digit) const;

  /// Stamp of the parent. Requires !is_root().
  [[nodiscard]] LevelStamp parent() const;

  /// Stamp of the ancestor at `depth` (digit-string prefix of that length).
  /// Requires depth <= depth().
  [[nodiscard]] LevelStamp truncated(std::size_t depth) const;

  [[nodiscard]] bool is_root() const noexcept { return depth() == 0; }
  [[nodiscard]] std::size_t depth() const noexcept {
    return wide() ? rep_.lanes[kWideDepthLane] : rep_.depth;
  }
  /// The digit at level i + 1. Requires i < depth().
  [[nodiscard]] StampDigit digit(std::size_t i) const noexcept {
    return wide() ? cell()[i] : rep_.lanes[i];
  }
  [[nodiscard]] StampDigit last() const { return digit(depth() - 1); }

  /// Reads the digits root first, as 32-bit values in either form.
  class Iterator {
   public:
    using value_type = StampDigit;
    using reference = StampDigit;
    using pointer = void;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::input_iterator_tag;

    Iterator() = default;
    Iterator(const LevelStamp* stamp, std::size_t i) : stamp_(stamp), i_(i) {}
    [[nodiscard]] StampDigit operator*() const noexcept {
      return stamp_->digit(i_);
    }
    Iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    Iterator operator++(int) noexcept {
      const Iterator old = *this;
      ++i_;
      return old;
    }
    [[nodiscard]] bool operator==(const Iterator& other) const noexcept {
      return i_ == other.i_;
    }

   private:
    const LevelStamp* stamp_ = nullptr;
    std::size_t i_ = 0;
  };
  [[nodiscard]] Iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] Iterator end() const noexcept { return {this, depth()}; }

  /// Strict ancestor test: *this is a proper prefix of other.
  [[nodiscard]] bool is_ancestor_of(const LevelStamp& other) const noexcept {
    return depth() < other.depth() && common_prefix(other) == depth();
  }
  /// Strict descendant test.
  [[nodiscard]] bool is_descendant_of(const LevelStamp& other) const noexcept {
    return other.is_ancestor_of(*this);
  }
  /// Ancestor-or-equal.
  [[nodiscard]] bool subsumes(const LevelStamp& other) const noexcept {
    return *this == other || is_ancestor_of(other);
  }

  /// Length of the longest common prefix (tree distance helper).
  [[nodiscard]] std::size_t common_prefix(
      const LevelStamp& other) const noexcept {
    const std::size_t n = std::min(depth(), other.depth());
    if (wide() || other.wide()) [[unlikely]] {
      return wide_common_prefix(other, n);
    }
    return std::min(n, first_differing_lane(rep_, other.rep_));
  }

  [[nodiscard]] bool operator==(const LevelStamp& other) const noexcept {
    if (wide() && other.wide()) [[unlikely]] {
      return depth() == other.depth() &&
             wide_common_prefix(other, depth()) == depth();
    }
    // A narrow stamp never equals a wide one: their form bytes differ.
    return std::bit_cast<Words>(rep_) == std::bit_cast<Words>(other.rep_);
  }
  /// Lexicographic; gives a deterministic total order for containers.
  [[nodiscard]] bool operator<(const LevelStamp& other) const noexcept {
    const std::size_t p = common_prefix(other);
    if (p < depth() && p < other.depth()) return digit(p) < other.digit(p);
    return depth() < other.depth();
  }

  /// Wire size in abstract units (a stamp is a handful of integers).
  [[nodiscard]] std::uint32_t size_units() const noexcept { return 1; }

  [[nodiscard]] std::string to_string() const;

  struct Hash {
    /// FNV-1a over the 32-bit digit values.
    [[nodiscard]] std::size_t operator()(const LevelStamp& s) const noexcept;
  };

 private:
  /// The largest digit a narrow stamp holds.
  static constexpr StampDigit kNarrowDigitMax = UINT16_MAX;
  enum class Form : std::uint8_t { kNarrow, kWide };
  /// The whole stamp as one trivially copyable block. Narrow: lanes
  /// [0, depth) hold the digits and every other lane is zero, so two
  /// narrow stamps are equal exactly when their bytes are. Wide: lanes
  /// 0-3 hold the cell pointer, lane kWideDepthLane the depth, and the
  /// rest (depth byte included) are zero.
  struct Rep {
    alignas(8) std::array<std::uint16_t, kInlineDepth> lanes{};
    std::uint8_t depth = 0;
    Form form = Form::kNarrow;
  };
  static_assert(sizeof(Rep) == 32);
  using Words = std::array<std::uint64_t, sizeof(Rep) / 8>;
  static constexpr std::size_t kWideDepthLane = sizeof(StampDigit*) / 2;

  /// The first of the 16 two-byte lanes (the 15 digits, then the depth and
  /// form bytes) at which two narrow stamps differ; 16 when they are equal.
  [[nodiscard]] static std::size_t first_differing_lane(
      const Rep& a, const Rep& b) noexcept {
    const Words x = std::bit_cast<Words>(a);
    const Words y = std::bit_cast<Words>(b);
    for (std::size_t w = 0; w < x.size(); ++w) {
      const std::uint64_t diff = x[w] ^ y[w];
      if (diff == 0) continue;
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(diff)
                          : std::countl_zero(diff);
      return w * 4 + static_cast<std::size_t>(bit) / 16;
    }
    return 16;
  }
  [[nodiscard]] std::size_t wide_common_prefix(const LevelStamp& other,
                                               std::size_t n) const noexcept;

  [[nodiscard]] bool wide() const noexcept { return rep_.form == Form::kWide; }
  [[nodiscard]] StampDigit* cell() const noexcept {
    StampDigit* cell = nullptr;
    std::memcpy(static_cast<void*>(&cell), rep_.lanes.data(), sizeof cell);
    return cell;
  }
  /// Switch a root stamp to the wide form with a fresh cell of `depth`
  /// digits, and return the cell for the caller to fill.
  StampDigit* make_wide(std::size_t depth);
  /// Replace the cell this stamp shares with the one it was copied from by
  /// a private copy.
  void copy_cell();
  void free_cell() noexcept {
    if (wide()) delete[] cell();
  }

  Rep rep_;
};

// Stamps are embedded in every task, packet, journal event and checkpoint
// record: a deeper inline buffer must not grow them.
static_assert(sizeof(LevelStamp) == 32);

}  // namespace splice::runtime
