// Aligned console tables, for the series behind each figure in the
// experiments binary (the "rows the paper reports") and the CLI summaries.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace lockdown::util {

/// Collects rows of string cells and renders them with per-column alignment.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends a row; it may have fewer cells than the header.
  void AddRow(std::vector<std::string> row);

  /// Renders the table with a separator under the header.
  void Print(std::ostream& out) const;

  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace lockdown::util
