#include "lang/value.h"

#include <sstream>
#include <stdexcept>

namespace splice::lang {

std::int64_t Value::as_int() const {
  if (!is_int()) throw std::logic_error("Value::as_int on a list");
  return int_;
}

const std::vector<std::int64_t>& Value::as_list() const {
  if (!is_list()) throw std::logic_error("Value::as_list on an int");
  return list_->items;
}

bool Value::truthy() const noexcept {
  if (is_int()) return int_ != 0;
  return !list_->items.empty();
}

std::uint32_t Value::size_units() const noexcept {
  if (is_int()) return 1;
  return static_cast<std::uint32_t>(1 + list_->items.size() / 8);
}

bool Value::operator==(const Value& other) const noexcept {
  if (is_int() != other.is_int()) return false;
  if (is_int()) return int_ == other.int_;
  return list_->items == other.list_->items;
}

std::string Value::to_string() const {
  if (is_int()) return std::to_string(int_);
  std::ostringstream out;
  const std::vector<std::int64_t>& items = list_->items;
  out << "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out << " ";
    out << items[i];
    if (i >= 15 && items.size() > 17) {
      out << " ...(" << items.size() << ")";
      break;
    }
  }
  out << "]";
  return out.str();
}

}  // namespace splice::lang
