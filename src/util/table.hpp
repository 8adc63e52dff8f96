// Tabular output for benches and experiment harnesses.
//
// Every bench binary prints the paper-shaped series as aligned text tables
// and can optionally mirror them to CSV, so EXPERIMENTS.md rows can be
// regenerated mechanically.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace wrt::util {

/// A cell is a string, an integer, or a real (printed with three digits
/// after the point).
using Cell = std::variant<std::string, std::int64_t, double>;

class Table {
 public:
  explicit Table(std::string title, std::vector<std::string> columns);

  /// Appends one row; the number of cells must match the column count.
  void add_row(std::vector<Cell> cells);

  /// Number of data rows.
  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  [[nodiscard]] const std::string& title() const noexcept { return title_; }

  /// Renders an aligned, boxed text table.
  void print(std::ostream& os) const;

  /// Renders RFC-4180-style CSV (no quoting of embedded commas needed for
  /// our numeric tables, but strings containing commas are quoted anyway).
  void print_csv(std::ostream& os) const;

 private:
  [[nodiscard]] std::string render_cell(const Cell& cell) const;

  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace wrt::util
