// ASCII table rendering used by the bench harness to print the
// paper's tables (Tables II, IV, V, VI, VII, VIII).
#pragma once

#include <string>
#include <vector>

namespace prcost {

/// A simple row/column text table. Rows are ragged-tolerant (short rows are
/// padded with empty cells). Numeric formatting is the caller's business.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append one data row.
  void add_row(std::vector<std::string> row);

  /// Insert a horizontal separator before the next added row.
  void add_separator();

  std::size_t row_count() const { return rows_.size(); }

  /// Render with box-drawing ASCII (for terminal bench output).
  std::string to_ascii() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;  // empty row == separator
  std::vector<std::size_t> column_widths() const;
};

}  // namespace prcost
