#include "util/table.h"

#include <algorithm>

namespace lockdown::util {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TablePrinter::Print(std::ostream& out) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  // Lines carry no trailing blanks, so a table pasted into a text file
  // survives editors that strip them.
  auto emit = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      line += cell;
      line.append(widths[i] + 2 - cell.size(), ' ');
    }
    line.erase(line.find_last_not_of(' ') + 1);
    out << line << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

}  // namespace lockdown::util
