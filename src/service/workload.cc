#include "service/workload.h"

#include <fstream>

#include "util/string_util.h"

namespace qbe {

std::optional<ExampleTable> ParseRequestLine(const std::string& line,
                                             std::string* error) {
  std::vector<std::vector<std::string>> rows;
  for (const std::string& row_text : SplitString(line, ';')) {
    rows.push_back(SplitString(row_text, '|'));
  }
  const size_t width = rows[0].size();
  if (width > static_cast<size_t>(ExampleTable::kMaxColumns)) {
    if (error != nullptr) {
      *error = "row 1 has " + std::to_string(width) +
               " cells; example tables are limited to " +
               std::to_string(ExampleTable::kMaxColumns) + " columns";
    }
    return std::nullopt;
  }
  bool any_cell = false;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() > width) {
      if (error != nullptr) {
        *error = "row " + std::to_string(r + 1) + " has " +
                 std::to_string(rows[r].size()) + " cells, wider than the " +
                 std::to_string(width) + "-column first row";
      }
      return std::nullopt;
    }
    for (const std::string& cell : rows[r]) {
      if (!cell.empty()) any_cell = true;
    }
  }
  if (!any_cell) {
    if (error != nullptr) *error = "no non-empty cells";
    return std::nullopt;
  }
  ExampleTable et = ExampleTable::WithColumns(static_cast<int>(width));
  for (std::vector<std::string>& row : rows) {
    row.resize(width);  // narrower rows pad with unconstrained cells
    et.AddRow(row);
  }
  return et;
}

bool LoadRequestFile(const std::string& path, std::vector<ExampleTable>* out,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "failed to read " + path;
    return false;
  }
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::string reason;
    std::optional<ExampleTable> et = ParseRequestLine(line, &reason);
    if (!et.has_value()) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_number) + ": " + reason +
                 ": \"" + line + "\"";
      }
      return false;
    }
    out->push_back(std::move(*et));
  }
  return true;
}

}  // namespace qbe
