#include "util/table.hpp"

#include <algorithm>
#include <sstream>

namespace prcost {
namespace {

void append_padded(std::ostringstream& os, const std::string& cell,
                   std::size_t width) {
  os << cell;
  for (std::size_t i = cell.size(); i < width; ++i) os << ' ';
}

}  // namespace

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TextTable::add_separator() { rows_.emplace_back(); }

std::vector<std::size_t> TextTable::column_widths() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c >= widths.size()) widths.resize(c + 1);
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  return widths;
}

std::string TextTable::to_ascii() const {
  const auto widths = column_widths();
  std::ostringstream os;
  const auto rule = [&] {
    os << '+';
    for (const auto w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) os << '-';
      os << '+';
    }
    os << '\n';
  };
  const auto emit_row = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << ' ';
      append_padded(os, c < row.size() ? row[c] : std::string{}, widths[c]);
      os << " |";
    }
    os << '\n';
  };
  rule();
  emit_row(header_);
  rule();
  for (const auto& row : rows_) {
    if (row.empty()) {
      rule();
    } else {
      emit_row(row);
    }
  }
  rule();
  return os.str();
}

}  // namespace prcost
