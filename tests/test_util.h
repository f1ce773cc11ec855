#ifndef QBE_TESTS_TEST_UTIL_H_
#define QBE_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "exec/predicate.h"
#include "ingest/db_view.h"
#include "schema/join_tree.h"
#include "schema/schema_graph.h"
#include "storage/database.h"
#include "text/tokenizer.h"
#include "util/check.h"

namespace qbe {
namespace test {

/// Every live row of every relation, in row order, one string per row.
inline std::vector<std::string> LiveRows(const DbView& view) {
  std::vector<std::string> out;
  for (int r = 0; r < view.num_relations(); ++r) {
    const Relation& rel = view.relation(r);
    for (uint32_t row = 0; row < view.TotalRows(r); ++row) {
      if (!view.IsLive(r, row)) continue;
      std::string line = rel.name();
      for (int c = 0; c < rel.num_columns(); ++c) {
        line += '|';
        if (rel.columns()[c].type == ColumnType::kId) {
          line += std::to_string(view.IdAt(r, c, row));
        } else {
          line += view.TextAt(r, c, row);
        }
      }
      out.push_back(std::move(line));
    }
  }
  return out;
}

/// ColumnRef from a "Relation.Column" string.
inline ColumnRef Col(const Database& db, const std::string& qualified) {
  size_t dot = qualified.find('.');
  QBE_CHECK(dot != std::string::npos);
  int rel = db.RelationIdByName(qualified.substr(0, dot));
  QBE_CHECK(rel >= 0);
  int col = db.relation(rel).ColumnIndexByName(qualified.substr(dot + 1));
  QBE_CHECK(col >= 0);
  return ColumnRef{rel, col};
}

/// Join tree from relation names, connected greedily via schema edges.
inline JoinTree Tree(const Database& db, const SchemaGraph& graph,
                     const std::vector<std::string>& names) {
  JoinTree tree = JoinTree::Single(db.RelationIdByName(names[0]));
  std::vector<int> wanted;
  for (size_t i = 1; i < names.size(); ++i) {
    wanted.push_back(db.RelationIdByName(names[i]));
  }
  while (!wanted.empty()) {
    bool advanced = false;
    for (size_t i = 0; i < wanted.size() && !advanced; ++i) {
      for (int e = 0; e < graph.num_edges() && !advanced; ++e) {
        const SchemaGraph::Edge& edge = graph.edge(e);
        bool from_in = tree.verts.Test(edge.from);
        bool to_in = tree.verts.Test(edge.to);
        if (from_in == to_in) continue;
        int other = from_in ? edge.to : edge.from;
        if (other != wanted[i]) continue;
        tree = ExtendTree(tree, graph, e);
        wanted.erase(wanted.begin() + i);
        advanced = true;
      }
    }
    QBE_CHECK_MSG(advanced, "relations not connectable into a tree");
  }
  return tree;
}

/// Reference (index-free, exponential) implementation of the existence
/// query: enumerates every combination of rows over the tree's relations
/// and checks all join conditions and phrase predicates. Only usable on
/// tiny databases; validates the executor's semijoin algorithm.
inline bool BruteForceExists(const Database& db, const SchemaGraph& graph,
                             const JoinTree& tree,
                             const std::vector<PhrasePredicate>& predicates) {
  (void)graph;
  std::vector<int> vertices = tree.Vertices();
  std::vector<int> edge_ids = tree.EdgeIds();
  std::vector<uint32_t> assignment(vertices.size(), 0);
  auto vertex_pos = [&](int rel) {
    for (size_t i = 0; i < vertices.size(); ++i) {
      if (vertices[i] == rel) return static_cast<int>(i);
    }
    return -1;
  };
  // Odometer over the cartesian product.
  for (;;) {
    bool ok = true;
    for (int e : edge_ids) {
      const ForeignKey& fk = db.foreign_key(e);
      int64_t lhs = db.relation(fk.from_rel)
                        .IdAt(fk.from_col, assignment[vertex_pos(fk.from_rel)]);
      int64_t rhs = db.relation(fk.to_rel)
                        .IdAt(fk.to_col, assignment[vertex_pos(fk.to_rel)]);
      if (lhs != rhs) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (const PhrasePredicate& pred : predicates) {
        const std::string_view cell =
            db.relation(pred.column.rel)
                .TextAt(pred.column.col,
                        assignment[vertex_pos(pred.column.rel)]);
        std::vector<std::string> cell_tokens = Tokenize(cell);
        bool match = pred.exact ? cell_tokens == pred.tokens
                                : IsTokenSubsequence(pred.tokens, cell_tokens);
        if (!match) {
          ok = false;
          break;
        }
      }
    }
    if (ok) return true;
    // Advance odometer.
    size_t pos = 0;
    while (pos < vertices.size()) {
      if (++assignment[pos] < db.relation(vertices[pos]).num_rows()) break;
      assignment[pos] = 0;
      ++pos;
    }
    if (pos == vertices.size()) return false;
  }
}

}  // namespace test
}  // namespace qbe

#endif  // QBE_TESTS_TEST_UTIL_H_
