#include "util/table.hpp"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace wrt::util {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {
  assert(!columns_.empty());
}

void Table::add_row(std::vector<Cell> cells) {
  assert(cells.size() == columns_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::render_cell(const Cell& cell) const {
  if (const auto* str = std::get_if<std::string>(&cell)) return *str;
  if (const auto* integer = std::get_if<std::int64_t>(&cell)) {
    return std::to_string(*integer);
  }
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(3) << std::get<double>(cell);
  return oss.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) widths[i] = columns_[i].size();
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      cells.push_back(render_cell(row[i]));
      widths[i] = std::max(widths[i], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }

  const auto rule = [&] {
    os << '+';
    for (const auto width : widths) os << std::string(width + 2, '-') << '+';
    os << '\n';
  };

  os << "== " << title_ << " ==\n";
  rule();
  os << '|';
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    os << ' ' << std::left << std::setw(static_cast<int>(widths[i]))
       << columns_[i] << " |";
  }
  os << '\n';
  rule();
  for (const auto& row : rendered) {
    os << '|';
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << ' ' << std::right << std::setw(static_cast<int>(widths[i]))
         << row[i] << " |";
    }
    os << '\n';
  }
  rule();
}

void Table::print_csv(std::ostream& os) const {
  const auto emit = [&os](const std::string& text) {
    if (text.find(',') != std::string::npos) {
      os << '"' << text << '"';
    } else {
      os << text;
    }
  };
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i != 0) os << ',';
    emit(columns_[i]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) os << ',';
      emit(render_cell(row[i]));
    }
    os << '\n';
  }
}

}  // namespace wrt::util
