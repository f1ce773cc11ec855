#ifndef QBE_CORE_EXAMPLE_TABLE_H_
#define QBE_CORE_EXAMPLE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "text/token_dict.h"

namespace qbe {

class DbView;

/// One cell of an example table: a string of one or more tokens, or empty
/// (Definition 1). `exact` opts into whole-value matching (the paper's
/// numeric exact-match extension, §2.2 Remarks).
struct EtCell {
  std::string text;
  bool exact = false;

  bool IsEmpty() const { return text.empty(); }
};

/// The user-provided example table T (Definition 1): m rows × n columns of
/// partially specified cells, typically typed into a spreadsheet-style
/// interface. Tokenizations are cached at insertion time since every
/// verification touches them.
class ExampleTable {
 public:
  /// Widest supported table: per-row column sets are 32-bit masks. Input
  /// parsers must reject wider tables before constructing one.
  static constexpr int kMaxColumns = 32;

  /// `column_names` fixes the column count (1..kMaxColumns); names may be
  /// empty strings (display defaults to A, B, C, …).
  explicit ExampleTable(std::vector<std::string> column_names);

  /// Convenience: n unnamed columns.
  static ExampleTable WithColumns(int n);

  /// Appends a row of cell strings ("" = empty cell).
  void AddRow(const std::vector<std::string>& cells);
  /// Appends a row with exact-match flags.
  void AddRowCells(std::vector<EtCell> cells);

  int num_rows() const { return static_cast<int>(rows_.size()); }
  int num_columns() const { return static_cast<int>(column_names_.size()); }

  const EtCell& cell(int row, int col) const { return rows_[row][col]; }
  const std::vector<std::string>& CellTokens(int row, int col) const {
    return tokens_[row][col];
  }

  const std::string& column_name(int col) const { return column_names_[col]; }

  /// Number of non-empty cells in `row` (VERIFYALL's dense-first ordering
  /// key, §4.1).
  int NonEmptyCellCount(int row) const;

  /// Bitmask over columns with non-empty cells in `row` (bit i = column i).
  uint32_t NonEmptyMask(int row) const { return nonempty_masks_[row]; }

  /// Fraction of empty cells (the sparsity parameter s of §6.1).
  double Sparsity() const;

  /// Definition 1 requires no fully-empty row or column; true iff that
  /// holds and the table is non-degenerate (m ≥ 1, n ≥ 1).
  bool IsWellFormed() const;

 private:
  std::vector<std::string> column_names_;
  std::vector<std::vector<EtCell>> rows_;
  std::vector<std::vector<std::vector<std::string>>> tokens_;
  std::vector<uint32_t> nonempty_masks_;
};

/// Every ET cell's tokens resolved against one database's TokenDict, built
/// once per discovery request. Predicates constructed from these carry id
/// vectors, so the thousands of existence queries a request evaluates never
/// re-hash a token string (unindexed tokens resolve to TokenDict::kNoToken,
/// keeping phrase positions aligned).
class EtTokenIds {
 public:
  EtTokenIds(const ExampleTable& et, const TokenDict& dict);

  /// Version-aware resolution: tokens absent from the base dictionary may
  /// resolve to the view's overlay dictionary (ids >= base size), so
  /// phrases only present in appended rows still match. With a plain view
  /// this is identical to the TokenDict constructor.
  EtTokenIds(const ExampleTable& et, const DbView& view);

  const std::vector<uint32_t>& CellIds(int row, int col) const {
    return ids_[row][col];
  }

 private:
  std::vector<std::vector<std::vector<uint32_t>>> ids_;
};

}  // namespace qbe

#endif  // QBE_CORE_EXAMPLE_TABLE_H_
