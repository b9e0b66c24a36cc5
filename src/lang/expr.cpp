#include "lang/expr.h"

#include <algorithm>
#include <stdexcept>

namespace splice::lang {

std::string_view to_string(Op op) noexcept {
  switch (op) {
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kNeg: return "neg";
    case Op::kMin: return "min";
    case Op::kMax: return "max";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kLt: return "lt";
    case Op::kLe: return "le";
    case Op::kGt: return "gt";
    case Op::kGe: return "ge";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kNot: return "not";
    case Op::kBAnd: return "band";
    case Op::kBOr: return "bor";
    case Op::kBXor: return "bxor";
    case Op::kBNot: return "bnot";
    case Op::kShl: return "shl";
    case Op::kShr: return "shr";
    case Op::kBurn: return "burn";
    case Op::kLen: return "len";
    case Op::kHead: return "head";
    case Op::kTail: return "tail";
    case Op::kTake: return "take";
    case Op::kDrop: return "drop";
    case Op::kAppend: return "append";
    case Op::kCons: return "cons";
    case Op::kMerge: return "merge";
    case Op::kNth: return "nth";
    case Op::kSum: return "sum";
    case Op::kIota: return "iota";
    case Op::kFiltLt: return "filt_lt";
    case Op::kFiltGe: return "filt_ge";
  }
  return "?";
}

int op_arity(Op op) noexcept {
  switch (op) {
    case Op::kNeg:
    case Op::kNot:
    case Op::kBNot:
    case Op::kBurn:
    case Op::kLen:
    case Op::kHead:
    case Op::kTail:
    case Op::kSum:
    case Op::kIota:
      return 1;
    default:
      return 2;
  }
}

namespace {

std::int64_t int_of(const Value& v) { return v.as_int(); }

// Integer arithmetic is total: it wraps in two's complement, as the codec's
// wrap_add does. Operands can arrive in a peer's frames, so no input may
// reach signed overflow (undefined) or INT64_MIN / -1 (a hardware trap).
// Computed in uint64 and cast back; C++20 defines both conversions.
std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
std::int64_t wrap_neg(std::int64_t a) { return wrap_sub(0, a); }

// Division by zero yields 0, and by -1 negates (INT64_MIN / -1 wraps to
// INT64_MIN, and INT64_MIN % -1 is 0).
std::int64_t total_div(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  return b == -1 ? wrap_neg(a) : a / b;
}
std::int64_t total_mod(std::int64_t a, std::int64_t b) {
  return b == 0 || b == -1 ? 0 : a % b;
}

Value scalar2(Op op, std::int64_t a, std::int64_t b) {
  switch (op) {
    case Op::kAdd: return Value::integer(wrap_add(a, b));
    case Op::kSub: return Value::integer(wrap_sub(a, b));
    case Op::kMul: return Value::integer(wrap_mul(a, b));
    case Op::kDiv: return Value::integer(total_div(a, b));
    case Op::kMod: return Value::integer(total_mod(a, b));
    case Op::kMin: return Value::integer(std::min(a, b));
    case Op::kMax: return Value::integer(std::max(a, b));
    case Op::kEq: return Value::boolean(a == b);
    case Op::kNe: return Value::boolean(a != b);
    case Op::kLt: return Value::boolean(a < b);
    case Op::kLe: return Value::boolean(a <= b);
    case Op::kGt: return Value::boolean(a > b);
    case Op::kGe: return Value::boolean(a >= b);
    case Op::kAnd: return Value::boolean(a != 0 && b != 0);
    case Op::kOr: return Value::boolean(a != 0 || b != 0);
    case Op::kBAnd: return Value::integer(a & b);
    case Op::kBOr: return Value::integer(a | b);
    case Op::kBXor: return Value::integer(a ^ b);
    case Op::kShl:
      return Value::integer(
          b <= 0 ? a : (b >= 63 ? 0 : static_cast<std::int64_t>(
                                          static_cast<std::uint64_t>(a) << b)));
    case Op::kShr:
      return Value::integer(
          b <= 0 ? a : (b >= 63 ? 0 : static_cast<std::int64_t>(
                                          static_cast<std::uint64_t>(a) >> b)));
    default:
      throw std::domain_error("scalar2: not a binary scalar op");
  }
}

}  // namespace

Value apply_prim(Op op, std::span<const Value> operands,
                 std::uint64_t* cost_out) {
  const auto expect = static_cast<std::size_t>(op_arity(op));
  if (operands.size() != expect) {
    throw std::domain_error(std::string("prim ") + std::string(to_string(op)) +
                            ": arity mismatch");
  }
  std::uint64_t cost = 1;
  Value result;
  switch (op) {
    case Op::kNeg:
      result = Value::integer(wrap_neg(int_of(operands[0])));
      break;
    case Op::kNot:
      result = Value::boolean(!operands[0].truthy());
      break;
    case Op::kBNot:
      result = Value::integer(~int_of(operands[0]));
      break;
    case Op::kBurn: {
      // The cost is |n| as an unsigned magnitude, defined for INT64_MIN too.
      const std::int64_t n = int_of(operands[0]);
      const auto bits = static_cast<std::uint64_t>(n);
      cost = std::max<std::uint64_t>(1, n < 0 ? 0 - bits : bits);
      result = operands[0];
      break;
    }
    case Op::kLen:
      cost = 1;
      result = Value::integer(
          static_cast<std::int64_t>(operands[0].as_list().size()));
      break;
    case Op::kHead: {
      const auto& xs = operands[0].as_list();
      if (xs.empty()) throw std::domain_error("head of empty list");
      result = Value::integer(xs.front());
      break;
    }
    case Op::kTail: {
      const auto& xs = operands[0].as_list();
      if (xs.empty()) throw std::domain_error("tail of empty list");
      cost = std::max<std::uint64_t>(1, xs.size());
      result = Value::list({xs.begin() + 1, xs.end()});
      break;
    }
    case Op::kSum: {
      const auto& xs = operands[0].as_list();
      cost = std::max<std::uint64_t>(1, xs.size());
      std::int64_t total = 0;
      for (auto x : xs) total = wrap_add(total, x);
      result = Value::integer(total);
      break;
    }
    case Op::kIota: {
      const std::int64_t n = std::max<std::int64_t>(0, int_of(operands[0]));
      cost = static_cast<std::uint64_t>(std::max<std::int64_t>(1, n));
      std::vector<std::int64_t> xs(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        xs[static_cast<std::size_t>(i)] = i;
      }
      result = Value::list(std::move(xs));
      break;
    }
    case Op::kTake: {
      const auto& xs = operands[0].as_list();
      const auto n = static_cast<std::size_t>(std::clamp<std::int64_t>(
          int_of(operands[1]), 0, static_cast<std::int64_t>(xs.size())));
      cost = std::max<std::uint64_t>(1, n);
      result = Value::list({xs.begin(), xs.begin() + static_cast<long>(n)});
      break;
    }
    case Op::kDrop: {
      const auto& xs = operands[0].as_list();
      const auto n = static_cast<std::size_t>(std::clamp<std::int64_t>(
          int_of(operands[1]), 0, static_cast<std::int64_t>(xs.size())));
      cost = std::max<std::uint64_t>(1, xs.size() - n);
      result = Value::list({xs.begin() + static_cast<long>(n), xs.end()});
      break;
    }
    case Op::kAppend: {
      const auto& a = operands[0].as_list();
      const auto& b = operands[1].as_list();
      cost = std::max<std::uint64_t>(1, a.size() + b.size());
      std::vector<std::int64_t> xs;
      xs.reserve(a.size() + b.size());
      xs.insert(xs.end(), a.begin(), a.end());
      xs.insert(xs.end(), b.begin(), b.end());
      result = Value::list(std::move(xs));
      break;
    }
    case Op::kCons: {
      const auto& b = operands[1].as_list();
      cost = std::max<std::uint64_t>(1, b.size() + 1);
      std::vector<std::int64_t> xs;
      xs.reserve(b.size() + 1);
      xs.push_back(int_of(operands[0]));
      xs.insert(xs.end(), b.begin(), b.end());
      result = Value::list(std::move(xs));
      break;
    }
    case Op::kMerge: {
      const auto& a = operands[0].as_list();
      const auto& b = operands[1].as_list();
      cost = std::max<std::uint64_t>(1, a.size() + b.size());
      std::vector<std::int64_t> xs;
      xs.reserve(a.size() + b.size());
      std::merge(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(xs));
      result = Value::list(std::move(xs));
      break;
    }
    case Op::kNth: {
      const auto& xs = operands[0].as_list();
      const std::int64_t i = int_of(operands[1]);
      if (i < 0 || static_cast<std::size_t>(i) >= xs.size()) {
        throw std::domain_error("nth out of range");
      }
      result = Value::integer(xs[static_cast<std::size_t>(i)]);
      break;
    }
    case Op::kFiltLt: {
      const auto& xs = operands[0].as_list();
      const std::int64_t pivot = int_of(operands[1]);
      cost = std::max<std::uint64_t>(1, xs.size());
      std::vector<std::int64_t> out;
      for (auto x : xs) {
        if (x < pivot) out.push_back(x);
      }
      result = Value::list(std::move(out));
      break;
    }
    case Op::kFiltGe: {
      const auto& xs = operands[0].as_list();
      const std::int64_t pivot = int_of(operands[1]);
      cost = std::max<std::uint64_t>(1, xs.size());
      std::vector<std::int64_t> out;
      for (auto x : xs) {
        if (x >= pivot) out.push_back(x);
      }
      result = Value::list(std::move(out));
      break;
    }
    default:
      result = scalar2(op, int_of(operands[0]), int_of(operands[1]));
      break;
  }
  if (cost_out != nullptr) *cost_out += cost;
  return result;
}

}  // namespace splice::lang
