// Completeness and correctness of join materialization: the executor's
// MaterializeAssignments must return *exactly* the satisfying row
// combinations the brute-force reference finds, including under dangling
// foreign keys (rows with no join partner must never appear).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "datagen/retailer.h"
#include "exec/executor.h"
#include "schema/join_tree_catalog.h"
#include "test_util.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace qbe {
namespace {

/// Brute-force enumeration of satisfying assignments, as (vertex -> row)
/// maps serialized for comparison.
std::set<std::vector<uint32_t>> BruteForceAssignments(
    const Database& db, const JoinTree& tree,
    const std::vector<PhrasePredicate>& predicates,
    const std::vector<int>& vertex_order) {
  std::set<std::vector<uint32_t>> results;
  std::vector<int> vertices = tree.Vertices();
  std::vector<uint32_t> current(vertices.size(), 0);
  auto vertex_pos = [&](int rel) {
    return static_cast<int>(std::find(vertices.begin(), vertices.end(), rel) -
                            vertices.begin());
  };
  for (;;) {
    bool ok = true;
    for (int e : tree.EdgeIds()) {
      const ForeignKey& fk = db.foreign_key(e);
      if (db.relation(fk.from_rel)
              .IdAt(fk.from_col, current[vertex_pos(fk.from_rel)]) !=
          db.relation(fk.to_rel)
              .IdAt(fk.to_col, current[vertex_pos(fk.to_rel)])) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (const PhrasePredicate& pred : predicates) {
        const std::string_view cell =
            db.relation(pred.column.rel)
                .TextAt(pred.column.col, current[vertex_pos(pred.column.rel)]);
        if (!IsTokenSubsequence(pred.tokens, Tokenize(cell))) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      // Reorder to the executor's vertex order.
      std::vector<uint32_t> reordered;
      for (int v : vertex_order) {
        reordered.push_back(current[vertex_pos(v)]);
      }
      results.insert(std::move(reordered));
    }
    size_t pos = 0;
    while (pos < vertices.size()) {
      if (++current[pos] < db.relation(vertices[pos]).num_rows()) break;
      current[pos] = 0;
      ++pos;
    }
    if (pos == vertices.size()) break;
  }
  return results;
}

TEST(ExecutorMaterializeTest, PropertyMatchesBruteForceExactly) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Database db = MakeScaledRetailerDatabase(5, 5, 4, 4, 12, 12, 6, seed);
    SchemaGraph graph(db);
    Executor exec(db, graph);
    Rng rng(seed * 7);
    const JoinTreeCatalog& trees = graph.catalog(4);
    for (int trial = 0; trial < 25; ++trial) {
      const JoinTree& tree = trees.tree(rng.NextBounded(trees.size()));
      // Occasionally constrain with a predicate from actual data.
      std::vector<PhrasePredicate> predicates;
      if (rng.NextBool(0.5)) {
        std::vector<int> vertices = tree.Vertices();
        int v = vertices[rng.NextBounded(vertices.size())];
        const Relation& rel = db.relation(v);
        for (int c = 0; c < rel.num_columns(); ++c) {
          if (rel.columns()[c].type == ColumnType::kText &&
              rel.num_rows() > 0) {
            const std::string_view cell =
                rel.TextAt(c, rng.NextBounded(rel.num_rows()));
            std::vector<std::string> tokens = Tokenize(cell);
            predicates.push_back(PhrasePredicate{
                ColumnRef{v, c},
                {tokens[rng.NextBounded(tokens.size())]},
                false});
            break;
          }
        }
      }
      std::vector<int> order;
      std::vector<std::vector<uint32_t>> got =
          exec.MaterializeAssignments(tree, predicates, 100000, &order);
      std::set<std::vector<uint32_t>> got_set(got.begin(), got.end());
      EXPECT_EQ(got_set.size(), got.size()) << "duplicate assignments";
      EXPECT_EQ(got_set,
                BruteForceAssignments(db, tree, predicates, order));
    }
  }
}

TEST(ExecutorMaterializeTest, DanglingForeignKeysExcluded) {
  // Fact rows referencing missing dim rows must not join.
  Database db;
  Relation dim("Dim", {{"id", ColumnType::kId}, {"t", ColumnType::kText}});
  dim.AppendRow({int64_t{1}, std::string("alpha")});
  dim.AppendRow({int64_t{2}, std::string("beta")});
  Relation fact("Fact", {{"fid", ColumnType::kId},
                         {"id", ColumnType::kId},
                         {"note", ColumnType::kText}});
  fact.AppendRow({int64_t{1}, int64_t{1}, std::string("ok one")});
  fact.AppendRow({int64_t{2}, int64_t{99}, std::string("dangling")});
  fact.AppendRow({int64_t{3}, int64_t{2}, std::string("ok two")});
  db.AddRelation(std::move(dim));
  db.AddRelation(std::move(fact));
  db.AddForeignKey("Fact", "id", "Dim", "id");
  db.BuildIndexes();
  SchemaGraph graph(db);
  Executor exec(db, graph);

  JoinTree tree = ExtendTree(JoinTree::Single(0), graph, 0);
  std::vector<int> order;
  auto assignments = exec.MaterializeAssignments(tree, {}, 100, &order);
  EXPECT_EQ(assignments.size(), 2u);  // dangling row excluded

  // Existence with a predicate that only the dangling row satisfies.
  int fact_rel = db.RelationIdByName("Fact");
  EXPECT_FALSE(exec.Exists(
      tree, {{ColumnRef{fact_rel, 2}, Tokenize("dangling"), false}}));
  EXPECT_TRUE(exec.Exists(
      tree, {{ColumnRef{fact_rel, 2}, Tokenize("ok"), false}}));
}

TEST(ExecutorMaterializeTest, LimitTruncatesDeterministically) {
  Database db = MakeScaledRetailerDatabase(10, 10, 5, 5, 40, 40, 10, 3);
  SchemaGraph graph(db);
  Executor exec(db, graph);
  JoinTree tree = test::Tree(db, graph, {"Sales", "Customer"});
  std::vector<int> order;
  auto all = exec.MaterializeAssignments(tree, {}, 100000, &order);
  ASSERT_GT(all.size(), 5u);
  auto limited = exec.MaterializeAssignments(tree, {}, 5, &order);
  ASSERT_EQ(limited.size(), 5u);
  // The limited prefix is a prefix of the full enumeration.
  for (size_t i = 0; i < limited.size(); ++i) {
    EXPECT_EQ(limited[i], all[i]);
  }
}

}  // namespace
}  // namespace qbe
