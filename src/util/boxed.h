// Owning, deep-copying heap cell for a large value.
//
// The wire payloads keep their large messages out of line behind it (see
// net/message.h), and a checkpoint record replayed from the durable log
// boxes the task packet it must carry itself (checkpoint/checkpoint_table.h).
#pragma once

#include <utility>

namespace splice::util {

/// Implicitly built from the value itself, so owners assign the value
/// (`env.payload = packet;`) and readers unwrap with `*`. A default-built or
/// moved-from box is empty: it may be destroyed, copied (to another empty
/// box), tested with has_value() or assigned to.
template <typename T>
class Boxed {
 public:
  Boxed() noexcept = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  Boxed(const T& value) : cell_(new T(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Boxed(T&& value) : cell_(new T(std::move(value))) {}
  Boxed(const Boxed& other)
      : cell_(other.cell_ != nullptr ? new T(*other.cell_) : nullptr) {}
  Boxed(Boxed&& other) noexcept : cell_(std::exchange(other.cell_, nullptr)) {}
  Boxed& operator=(const Boxed& other) {
    if (this != &other) *this = Boxed(other);
    return *this;
  }
  Boxed& operator=(Boxed&& other) noexcept {
    if (this != &other) {
      delete cell_;
      cell_ = std::exchange(other.cell_, nullptr);
    }
    return *this;
  }
  ~Boxed() { delete cell_; }

  [[nodiscard]] T& operator*() noexcept { return *cell_; }
  [[nodiscard]] const T& operator*() const noexcept { return *cell_; }
  [[nodiscard]] T* operator->() noexcept { return cell_; }
  [[nodiscard]] const T* operator->() const noexcept { return cell_; }
  [[nodiscard]] bool has_value() const noexcept { return cell_ != nullptr; }

 private:
  T* cell_ = nullptr;
};

}  // namespace splice::util
