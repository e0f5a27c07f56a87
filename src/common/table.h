#pragma once
// ASCII table rendering for paper_figures and the serving studies: each
// prints the rows/series the paper reports; AsciiTable keeps the output
// aligned and diff-friendly.

#include <string>
#include <vector>

namespace cimtpu {

class AsciiTable {
 public:
  explicit AsciiTable(std::string title = "") : title_(std::move(title)) {}

  /// Sets the column headers; must be called before adding rows.
  void set_header(std::vector<std::string> header);

  /// Appends one row; must match the header width.
  void add_row(std::vector<std::string> row);

  /// Appends a horizontal separator between row groups.
  void add_separator();

  /// Renders the table.
  std::string to_string() const;

  /// Renders and writes to stdout.
  void print() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };

  std::string title_;
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

/// Convenience numeric cell formatters.
std::string cell_f(double value, int precision = 3);
std::string cell_i(long long value);

}  // namespace cimtpu
