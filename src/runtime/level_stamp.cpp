#include "runtime/level_stamp.h"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace splice::runtime {

LevelStamp::LevelStamp(std::span<const StampDigit> digits) {
  if (digits.size() > kMaxDepth) {
    throw std::length_error("LevelStamp: deeper than 65535 digits");
  }
  if (digits.size() > kInlineDepth ||
      std::ranges::any_of(digits,
                          [](StampDigit d) { return d > kNarrowDigitMax; })) {
    std::ranges::copy(digits, make_wide(digits.size()));
    return;
  }
  for (std::size_t i = 0; i < digits.size(); ++i) {
    rep_.lanes[i] = static_cast<std::uint16_t>(digits[i]);
  }
  rep_.depth = static_cast<std::uint8_t>(digits.size());
}

LevelStamp LevelStamp::child(StampDigit digit) const {
  const std::size_t d = depth();
  if (!wide() && d < kInlineDepth && digit <= kNarrowDigitMax) {
    LevelStamp out(*this);
    out.rep_.lanes[d] = static_cast<std::uint16_t>(digit);
    out.rep_.depth = static_cast<std::uint8_t>(d + 1);
    return out;
  }
  if (d == kMaxDepth) {
    throw std::length_error("LevelStamp: deeper than 65535 digits");
  }
  LevelStamp out;
  StampDigit* digits = out.make_wide(d + 1);
  std::ranges::copy(*this, digits);
  digits[d] = digit;
  return out;
}

LevelStamp LevelStamp::parent() const {
  assert(!is_root());
  return truncated(depth() - 1);
}

LevelStamp LevelStamp::truncated(std::size_t depth) const {
  assert(depth <= this->depth());
  // A prefix of a wide stamp may be narrow.
  if (wide()) return LevelStamp(std::span<const StampDigit>(cell(), depth));
  LevelStamp out(*this);
  std::fill(out.rep_.lanes.begin() + static_cast<std::ptrdiff_t>(depth),
            out.rep_.lanes.end(), std::uint16_t{0});
  out.rep_.depth = static_cast<std::uint8_t>(depth);
  return out;
}

std::size_t LevelStamp::wide_common_prefix(const LevelStamp& other,
                                           std::size_t n) const noexcept {
  std::size_t i = 0;
  while (i < n && digit(i) == other.digit(i)) ++i;
  return i;
}

StampDigit* LevelStamp::make_wide(std::size_t depth) {
  assert(is_root() && !wide());
  StampDigit* digits = new StampDigit[depth];
  std::memcpy(rep_.lanes.data(), static_cast<const void*>(&digits),
              sizeof digits);
  rep_.lanes[kWideDepthLane] = static_cast<std::uint16_t>(depth);
  rep_.form = Form::kWide;
  return digits;
}

void LevelStamp::copy_cell() {
  const StampDigit* shared = cell();
  const std::size_t n = depth();
  rep_ = Rep{};
  std::copy_n(shared, n, make_wide(n));
}

std::string LevelStamp::to_string() const {
  if (is_root()) return "<root>";
  std::ostringstream out;
  out << "<";
  for (std::size_t i = 0; i < depth(); ++i) {
    if (i) out << ".";
    out << digit(i);
  }
  out << ">";
  return out.str();
}

std::size_t LevelStamp::Hash::operator()(const LevelStamp& s) const noexcept {
  std::size_t h = 14695981039346656037ULL;
  for (const StampDigit d : s) {
    h ^= d;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace splice::runtime
