#include "core/candidate_gen.h"

#include <algorithm>
#include <iterator>
#include <string>

#include "ingest/db_view.h"
#include "kernels/kernels.h"
#include "schema/subtree_enum.h"
#include "util/check.h"

namespace qbe {
namespace {

/// The gids of the text columns containing ET cell (r, c), ascending: the
/// union over the views of each view's set. Containment is a per-row
/// property and the views partition the rows, so the union is exact;
/// tokens resolve against each view's own dictionary (a token a view lacks
/// matches nothing there, which is what the global answer needs).
class CellColumns {
 public:
  explicit CellColumns(std::span<const DbView> views) : views_(views) {}

  const std::vector<int>& Of(const ExampleTable& et, int r, int c) {
    const std::vector<std::string>& tokens = et.CellTokens(r, c);
    views_[0].IdsOfInto(tokens, &ids_);
    views_[0].ColumnsContainingIdsInto(ids_, &gids_);
    for (size_t v = 1; v < views_.size(); ++v) {
      views_[v].IdsOfInto(tokens, &ids_);
      views_[v].ColumnsContainingIdsInto(ids_, &view_gids_);
      merged_.clear();
      std::set_union(gids_.begin(), gids_.end(), view_gids_.begin(),
                     view_gids_.end(), std::back_inserter(merged_));
      gids_.swap(merged_);
    }
    return gids_;
  }

 private:
  std::span<const DbView> views_;
  std::vector<uint32_t> ids_;
  std::vector<int> gids_;
  std::vector<int> view_gids_;
  std::vector<int> merged_;
};

}  // namespace

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumns(
    std::span<const DbView> views, const ExampleTable& et) {
  CellColumns cell_columns(views);
  std::vector<std::vector<ColumnRef>> result(et.num_columns());
  std::vector<int> gids;
  std::vector<int> scratch;
  for (int c = 0; c < et.num_columns(); ++c) {
    // Fold the per-row column sets into their intersection on the
    // dispatched kernel layer (DESIGN.md §14).
    bool first = true;
    for (int r = 0; r < et.num_rows() && (first || !gids.empty()); ++r) {
      if (et.cell(r, c).IsEmpty()) continue;
      const std::vector<int>& cell = cell_columns.Of(et, r, c);
      if (first) {
        gids = cell;
        first = false;
      } else {
        kernels::IntersectSortedInPlace(&gids, cell, &scratch);
      }
    }
    // A well-formed ET has at least one non-empty cell per column, so
    // `first` is false here (Definition 1 forbids empty columns).
    QBE_CHECK_MSG(!first, "example table has an empty column");
    for (int gid : gids) result[c].push_back(views[0].TextColumnByGid(gid));
  }
  return result;
}

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumns(
    const DbView& view, const ExampleTable& et) {
  return RetrieveCandidateColumns(std::span<const DbView>(&view, 1), et);
}

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumns(
    const Database& db, const ExampleTable& et) {
  return RetrieveCandidateColumns(DbView(db), et);
}

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumnsRelaxed(
    std::span<const DbView> views, const ExampleTable& et,
    int min_row_support) {
  const Database& db = views[0].base();
  CellColumns cell_columns(views);
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
      for (int gid : cell_columns.Of(et, r, c)) counts[gid] += 1;
    }
    for (int gid = 0; gid < db.TotalTextColumns(); ++gid) {
      if (counts[gid] + empty_rows >= need) {
        result[c].push_back(db.TextColumnByGid(gid));
      }
    }
  }
  return result;
}

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumnsRelaxed(
    const Database& db, const ExampleTable& et, int min_row_support) {
  const DbView view(db);
  return RetrieveCandidateColumnsRelaxed(std::span<const DbView>(&view, 1),
                                         et, min_row_support);
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
