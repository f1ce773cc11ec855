#include "datagen/et_gen.h"

#include <algorithm>
#include <set>

#include "schema/join_tree_catalog.h"
#include "text/tokenizer.h"
#include "util/check.h"
#include "util/string_util.h"

namespace qbe {
namespace {

/// All text columns of the tree's relations.
std::vector<ColumnRef> TreeTextColumns(const Database& db,
                                       const JoinTree& tree) {
  std::vector<ColumnRef> cols;
  tree.verts.ForEach([&](int v) {
    const Relation& rel = db.relation(v);
    for (int c = 0; c < rel.num_columns(); ++c) {
      if (rel.columns()[c].type == ColumnType::kText) {
        cols.push_back(ColumnRef{v, c});
      }
    }
  });
  return cols;
}

}  // namespace

EtSource::EtSource(const Database& db, const SchemaGraph& graph,
                   const Executor& exec, uint64_t seed,
                   const Options& options) {
  // Rank join trees by text-column richness, then take the first
  // `num_matrices` (in a seed-shuffled order among equals) that yield
  // enough complete distinct rows.
  const JoinTreeCatalog& trees = graph.catalog(options.max_tree_size);
  std::vector<std::pair<int, int>> ranked;  // (-text_cols, tree id)
  for (int i = 0; i < trees.size(); ++i) {
    const int text_cols =
        static_cast<int>(TreeTextColumns(db, trees.tree(i)).size());
    if (text_cols >= options.min_text_cols) {
      ranked.emplace_back(-text_cols, i);
    }
  }
  Rng rng(seed);
  rng.Shuffle(ranked);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  for (const auto& [neg_cols, index] : ranked) {
    if (num_matrices() >= options.num_matrices) break;
    const JoinTree& tree = trees.tree(index);
    std::vector<ColumnRef> projection = TreeTextColumns(db, tree);
    std::vector<std::vector<std::string>> rows =
        exec.Materialize(tree, {}, projection, options.matrix_row_cap);
    // Keep complete rows only (Step 1 of §6.1 requires rows without empty
    // cells) and deduplicate.
    std::set<std::vector<std::string>> distinct;
    for (std::vector<std::string>& row : rows) {
      bool complete = true;
      for (const std::string& cell : row) {
        if (Tokenize(cell).empty()) {
          complete = false;
          break;
        }
      }
      if (complete) distinct.insert(std::move(row));
    }
    if (distinct.size() < options.min_matrix_rows) continue;
    Matrix matrix;
    matrix.num_cols = static_cast<int>(projection.size());
    matrix.rows.assign(distinct.begin(), distinct.end());
    matrices_.push_back(std::move(matrix));
  }
}

std::optional<ExampleTable> EtSource::Sample(const EtParams& params, int index,
                                             Rng& rng) const {
  const Matrix& matrix = matrices_[index];
  if (static_cast<int>(matrix.rows.size()) < params.m) return std::nullopt;
  if (matrix.num_cols < params.n) return std::nullopt;

  // Step 1: m random distinct complete rows × n random distinct columns.
  std::vector<int> row_pool(matrix.rows.size());
  for (size_t i = 0; i < row_pool.size(); ++i) row_pool[i] = i;
  rng.Shuffle(row_pool);
  std::vector<int> col_pool(matrix.num_cols);
  for (size_t i = 0; i < col_pool.size(); ++i) col_pool[i] = i;
  rng.Shuffle(col_pool);

  std::vector<std::vector<std::string>> grid(params.m);
  for (int r = 0; r < params.m; ++r) {
    for (int c = 0; c < params.n; ++c) {
      grid[r].push_back(matrix.rows[row_pool[r]][col_pool[c]]);
    }
  }

  // Steps 2-3: blank ⌊m·n·s⌋ cells; retry while a row/column goes empty.
  int blanks = static_cast<int>(params.m * params.n * params.s);
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<int> cells(params.m * params.n);
    for (size_t i = 0; i < cells.size(); ++i) cells[i] = i;
    rng.Shuffle(cells);
    std::vector<char> blank(params.m * params.n, 0);
    for (int b = 0; b < blanks; ++b) blank[cells[b]] = 1;

    bool ok = true;
    for (int r = 0; r < params.m && ok; ++r) {
      int filled = 0;
      for (int c = 0; c < params.n; ++c) filled += !blank[r * params.n + c];
      ok = filled > 0;
    }
    for (int c = 0; c < params.n && ok; ++c) {
      int filled = 0;
      for (int r = 0; r < params.m; ++r) filled += !blank[r * params.n + c];
      ok = filled > 0;
    }
    if (!ok) continue;

    ExampleTable et = ExampleTable::WithColumns(params.n);
    for (int r = 0; r < params.m; ++r) {
      std::vector<std::string> row(params.n);
      for (int c = 0; c < params.n; ++c) {
        if (blank[r * params.n + c]) continue;
        // Keep the first v tokens of the cell.
        std::vector<std::string> tokens = Tokenize(grid[r][c]);
        tokens.resize(
            std::min(tokens.size(), static_cast<size_t>(params.v)));
        row[c] = JoinStrings(tokens, " ");
      }
      et.AddRow(row);
    }
    QBE_CHECK(et.IsWellFormed());
    return et;
  }
  return std::nullopt;
}

std::vector<ExampleTable> EtSource::SampleMany(const EtParams& params,
                                               int count,
                                               uint64_t seed) const {
  QBE_CHECK_MSG(num_matrices() > 0, "no usable matrices");
  std::vector<ExampleTable> out;
  Rng rng(seed);
  int matrix = 0;
  int consecutive_failures = 0;
  while (static_cast<int>(out.size()) < count) {
    QBE_CHECK_MSG(consecutive_failures < 10 * num_matrices(),
                  "no matrix supports the requested ET parameters");
    std::optional<ExampleTable> et =
        Sample(params, matrix % num_matrices(), rng);
    ++matrix;
    if (et.has_value()) {
      out.push_back(std::move(*et));
      consecutive_failures = 0;
    } else {
      ++consecutive_failures;
    }
  }
  return out;
}

}  // namespace qbe
