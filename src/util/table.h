// ASCII table / CSV rendering for experiment harness output.
//
// Every bench binary prints the rows of the figure/table it regenerates via
// this printer so output is uniform and greppable.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace splice::util {

/// Column-aligned ASCII table with an optional title and CSV export.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Add one row; it is padded/truncated to the header width.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format doubles with fixed precision.
  [[nodiscard]] static std::string num(double value, int precision = 2);
  [[nodiscard]] static std::string num(std::uint64_t value);
  [[nodiscard]] static std::string num(std::int64_t value);

  void set_title(std::string title) { title_ = std::move(title); }

  [[nodiscard]] std::string to_ascii() const;
  [[nodiscard]] std::string to_csv() const;

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace splice::util
