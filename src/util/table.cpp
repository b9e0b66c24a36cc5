#include "util/table.h"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <sstream>

namespace splice::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

std::string Table::num(std::uint64_t value) { return std::to_string(value); }
std::string Table::num(std::int64_t value) { return std::to_string(value); }

std::string Table::to_ascii() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  if (!title_.empty()) out << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& cells) {
    out << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      out << " " << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    out << "\n";
  };
  emit_row(headers_);
  out << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string Table::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) out << ",";
      // Quote cells containing separators.
      if (cells[c].find_first_of(",\"\n") != std::string::npos) {
        out << '"';
        for (char ch : cells[c]) {
          if (ch == '"') out << '"';
          out << ch;
        }
        out << '"';
      } else {
        out << cells[c];
      }
    }
    out << "\n";
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

}  // namespace splice::util
