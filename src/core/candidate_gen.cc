#include "core/candidate_gen.h"

#include <algorithm>

#include "ingest/db_view.h"
#include "kernels/kernels.h"
#include "schema/subtree_enum.h"
#include "util/check.h"

namespace qbe {
namespace {

/// Folds the per-row "columns containing this cell" gid lists of ET column
/// `c` into their intersection — the candidate projection columns of
/// Eq. 3. The one shared accumulator behind both the plain-Database and
/// DbView retrieval paths; row lists come from `matches_for_row` (sorted
/// ascending) and the intersection runs on the dispatched kernel layer
/// (DESIGN.md §14).
template <typename MatchesForRow>
std::vector<int> IntersectColumnsOverRows(const ExampleTable& et, int c,
                                          MatchesForRow&& matches_for_row) {
  std::vector<int> gids;
  std::vector<int> scratch;
  bool first = true;
  for (int r = 0; r < et.num_rows() && (first || !gids.empty()); ++r) {
    if (et.cell(r, c).IsEmpty()) continue;
    if (first) {
      gids = matches_for_row(r);
      first = false;
    } else {
      kernels::IntersectSortedInPlace(&gids, matches_for_row(r), &scratch);
    }
  }
  // A well-formed ET has at least one non-empty cell per column, so
  // `first` is false here (Definition 1 forbids empty columns).
  QBE_CHECK_MSG(!first, "example table has an empty column");
  return gids;
}

}  // namespace

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumns(
    const Database& db, const ExampleTable& et) {
  const ColumnIndex& ci = db.column_index();
  std::vector<std::vector<ColumnRef>> result(et.num_columns());
  for (int c = 0; c < et.num_columns(); ++c) {
    std::vector<int> gids = IntersectColumnsOverRows(et, c, [&](int r) {
      return ci.ColumnsContaining(et.CellTokens(r, c));
    });
    for (int gid : gids) result[c].push_back(db.TextColumnByGid(gid));
  }
  return result;
}

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumnsRelaxed(
    const Database& db, const ExampleTable& et, int min_row_support) {
  const ColumnIndex& ci = db.column_index();
  int need = std::min(min_row_support, et.num_rows());
  std::vector<std::vector<ColumnRef>> result(et.num_columns());
  for (int c = 0; c < et.num_columns(); ++c) {
    // Per-column compatible-row counts; empty cells are compatible with
    // every column and contribute a base count instead.
    std::vector<int> counts(db.TotalTextColumns(), 0);
    int empty_rows = 0;
    for (int r = 0; r < et.num_rows(); ++r) {
      if (et.cell(r, c).IsEmpty()) {
        ++empty_rows;
        continue;
      }
      for (int gid : ci.ColumnsContaining(et.CellTokens(r, c))) {
        counts[gid] += 1;
      }
    }
    for (int gid = 0; gid < db.TotalTextColumns(); ++gid) {
      if (counts[gid] + empty_rows >= need) {
        result[c].push_back(db.TextColumnByGid(gid));
      }
    }
  }
  return result;
}

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumns(
    const DbView& view, const ExampleTable& et) {
  if (view.plain()) return RetrieveCandidateColumns(view.base(), et);
  std::vector<std::vector<ColumnRef>> result(et.num_columns());
  std::vector<uint32_t> ids;
  std::vector<int> matches;
  for (int c = 0; c < et.num_columns(); ++c) {
    std::vector<int> gids =
        IntersectColumnsOverRows(et, c, [&](int r) -> const std::vector<int>& {
          view.IdsOfInto(et.CellTokens(r, c), &ids);
          view.ColumnsContainingIdsInto(ids, &matches);
          return matches;
        });
    for (int gid : gids) result[c].push_back(view.TextColumnByGid(gid));
  }
  return result;
}

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumnsRelaxed(
    const DbView& view, const ExampleTable& et, int min_row_support) {
  if (view.plain()) {
    return RetrieveCandidateColumnsRelaxed(view.base(), et, min_row_support);
  }
  const Database& db = view.base();
  int need = std::min(min_row_support, et.num_rows());
  std::vector<std::vector<ColumnRef>> result(et.num_columns());
  std::vector<uint32_t> ids;
  std::vector<int> matches;
  for (int c = 0; c < et.num_columns(); ++c) {
    std::vector<int> counts(db.TotalTextColumns(), 0);
    int empty_rows = 0;
    for (int r = 0; r < et.num_rows(); ++r) {
      if (et.cell(r, c).IsEmpty()) {
        ++empty_rows;
        continue;
      }
      view.IdsOfInto(et.CellTokens(r, c), &ids);
      view.ColumnsContainingIdsInto(ids, &matches);
      for (int gid : matches) counts[gid] += 1;
    }
    for (int gid = 0; gid < db.TotalTextColumns(); ++gid) {
      if (counts[gid] + empty_rows >= need) {
        result[c].push_back(db.TextColumnByGid(gid));
      }
    }
  }
  return result;
}

namespace {

/// Recursively assigns ET columns to candidate columns within the tree,
/// emitting every minimal assignment.
void AssignColumns(const Database& db, const SchemaGraph& graph,
                   const JoinTree& tree,
                   const std::vector<std::vector<ColumnRef>>& options,
                   size_t max_candidates, size_t column,
                   std::vector<ColumnRef>& assignment,
                   std::vector<CandidateQuery>& out) {
  if (out.size() >= max_candidates) return;
  if (column == options.size()) {
    CandidateQuery query{tree, assignment};
    if (IsMinimalCandidate(query, graph)) out.push_back(std::move(query));
    return;
  }
  for (const ColumnRef& choice : options[column]) {
    assignment[column] = choice;
    AssignColumns(db, graph, tree, options, max_candidates, column + 1,
                  assignment, out);
    if (out.size() >= max_candidates) return;
  }
}

}  // namespace

std::vector<CandidateQuery> EnumerateCandidateQueries(
    const Database& db, const SchemaGraph& graph, const ExampleTable& et,
    const std::vector<std::vector<ColumnRef>>& candidate_columns,
    const CandidateGenOptions& options) {
  (void)et;  // the ET's constraints arrive pre-digested in candidate_columns
  std::vector<CandidateQuery> out;
  // Relations hosting at least one candidate projection column; every
  // useful join tree touches one, and all its leaves must lie in this set.
  RelationSet hosting;
  for (const auto& cols : candidate_columns) {
    if (cols.empty()) return out;  // some ET column is unmatchable
    for (const ColumnRef& col : cols) hosting.Set(col.rel);
  }

  for (const JoinTree& tree :
       EnumerateSubtrees(graph, options.max_join_tree_size, &hosting)) {
    if (options.deadline != nullptr && options.deadline->Expired()) break;
    // Minimality requires every leaf to host a mapped column; leaves
    // outside `hosting` can never be mapped, so skip such trees outright.
    bool leaves_ok = true;
    for (int leaf : tree.LeafVertices(graph)) {
      if (!hosting.Test(leaf)) {
        leaves_ok = false;
        break;
      }
    }
    if (!leaves_ok) continue;

    // Restrict each ET column's options to columns inside this tree.
    std::vector<std::vector<ColumnRef>> in_tree(candidate_columns.size());
    bool feasible = true;
    for (size_t c = 0; c < candidate_columns.size() && feasible; ++c) {
      for (const ColumnRef& col : candidate_columns[c]) {
        if (tree.verts.Test(col.rel)) in_tree[c].push_back(col);
      }
      feasible = !in_tree[c].empty();
    }
    if (!feasible) continue;

    std::vector<ColumnRef> assignment(candidate_columns.size());
    AssignColumns(db, graph, tree, in_tree, options.max_candidates, 0,
                  assignment, out);
    if (out.size() >= options.max_candidates) break;
  }
  return out;
}

std::vector<CandidateQuery> GenerateCandidates(
    const Database& db, const SchemaGraph& graph, const ExampleTable& et,
    const CandidateGenOptions& options) {
  return EnumerateCandidateQueries(db, graph, et,
                                   RetrieveCandidateColumns(db, et), options);
}

}  // namespace qbe
