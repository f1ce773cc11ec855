#include "core/example_table.h"

#include "ingest/db_view.h"
#include "text/tokenizer.h"
#include "util/check.h"

namespace qbe {

ExampleTable::ExampleTable(std::vector<std::string> column_names)
    : column_names_(std::move(column_names)) {
  QBE_CHECK(!column_names_.empty());
  QBE_CHECK_MSG(column_names_.size() <=
                    static_cast<size_t>(kMaxColumns),
                "example tables are limited to 32 columns");
}

Hash128 PhraseFingerprint(const std::vector<std::string>& tokens) {
  Hasher128 hasher;
  hasher.Add(tokens.size());
  for (const std::string& token : tokens) hasher.AddBytes(token);
  return hasher.Finish();
}

ExampleTable ExampleTable::WithColumns(int n) {
  return ExampleTable(std::vector<std::string>(n));
}

void ExampleTable::AddRow(const std::vector<std::string>& cells) {
  std::vector<EtCell> row;
  row.reserve(cells.size());
  for (const std::string& text : cells) row.push_back(EtCell{text, false});
  AddRowCells(std::move(row));
}

void ExampleTable::AddRowCells(std::vector<EtCell> cells) {
  QBE_CHECK(cells.size() == column_names_.size());
  std::vector<std::vector<std::string>> row_tokens;
  std::vector<Hash128> row_fingerprints;
  uint32_t mask = 0;
  row_tokens.reserve(cells.size());
  row_fingerprints.reserve(cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    row_tokens.push_back(Tokenize(cells[c].text));
    row_fingerprints.push_back(PhraseFingerprint(row_tokens.back()));
    if (!cells[c].IsEmpty()) mask |= uint32_t{1} << c;
  }
  rows_.push_back(std::move(cells));
  tokens_.push_back(std::move(row_tokens));
  fingerprints_.push_back(std::move(row_fingerprints));
  nonempty_masks_.push_back(mask);
}

int ExampleTable::NonEmptyCellCount(int row) const {
  int n = 0;
  for (const EtCell& cell : rows_[row])
    if (!cell.IsEmpty()) ++n;
  return n;
}

double ExampleTable::Sparsity() const {
  if (rows_.empty()) return 0.0;
  int empty = 0;
  for (int r = 0; r < num_rows(); ++r)
    empty += num_columns() - NonEmptyCellCount(r);
  return static_cast<double>(empty) / (num_rows() * num_columns());
}

EtTokenIds::EtTokenIds(const ExampleTable& et, const TokenDict& dict) {
  ids_.resize(et.num_rows());
  for (int r = 0; r < et.num_rows(); ++r) {
    ids_[r].resize(et.num_columns());
    for (int c = 0; c < et.num_columns(); ++c) {
      ids_[r][c] = dict.IdsOf(et.CellTokens(r, c));
    }
  }
}

EtTokenIds::EtTokenIds(const ExampleTable& et, const DbView& view) {
  ids_.resize(et.num_rows());
  for (int r = 0; r < et.num_rows(); ++r) {
    ids_[r].resize(et.num_columns());
    for (int c = 0; c < et.num_columns(); ++c) {
      ids_[r][c] = view.IdsOf(et.CellTokens(r, c));
    }
  }
}

bool ExampleTable::IsWellFormed() const {
  if (rows_.empty()) return false;
  uint32_t column_union = 0;
  for (int r = 0; r < num_rows(); ++r) {
    if (nonempty_masks_[r] == 0) return false;  // empty row
    column_union |= nonempty_masks_[r];
  }
  uint32_t all = num_columns() == 32
                     ? ~uint32_t{0}
                     : (uint32_t{1} << num_columns()) - 1;
  return column_union == all;  // no empty column
}

}  // namespace qbe
