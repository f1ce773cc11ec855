// Parallel foreign keys between the same pair of relations (§2.1: "there
// can be multiple edges from Rj to Rk, labeled with the corresponding
// foreign key's attribute name"). The IMDB-like schema has a real case:
// movie_link references title twice (movie_id and linked_movie_id). These
// edges yield *distinct* join trees over the same vertex set, distinct
// candidates, and distinct verification outcomes.

#include <gtest/gtest.h>

#include "core/candidate_gen.h"
#include "exec/executor.h"
#include "exec/sql_render.h"
#include "schema/join_tree_catalog.h"
#include "storage/database.h"
#include "text/tokenizer.h"

namespace qbe {
namespace {

/// A two-relation database with parallel edges: Game references Team twice
/// (home and away). Values are arranged so that "Lions" only ever plays
/// home and "Bears" only away.
Database MakeSportsDb() {
  Database db;
  Relation team("Team", {{"team_id", ColumnType::kId},
                         {"tname", ColumnType::kText}});
  team.AppendRow({int64_t{1}, std::string("Lions")});
  team.AppendRow({int64_t{2}, std::string("Bears")});
  team.AppendRow({int64_t{3}, std::string("Hawks")});
  Relation game("Game", {{"game_id", ColumnType::kId},
                         {"home_id", ColumnType::kId},
                         {"away_id", ColumnType::kId},
                         {"venue", ColumnType::kText}});
  game.AppendRow({int64_t{1}, int64_t{1}, int64_t{2}, std::string("north")});
  game.AppendRow({int64_t{2}, int64_t{1}, int64_t{3}, std::string("south")});
  game.AppendRow({int64_t{3}, int64_t{3}, int64_t{2}, std::string("north")});
  db.AddRelation(std::move(team));
  db.AddRelation(std::move(game));
  db.AddForeignKey("Game", "home_id", "Team", "team_id");
  db.AddForeignKey("Game", "away_id", "Team", "team_id");
  db.BuildIndexes();
  return db;
}

class MultiEdgeTest : public ::testing::Test {
 protected:
  MultiEdgeTest() : db_(MakeSportsDb()), graph_(db_), exec_(db_, graph_) {}
  Database db_;
  SchemaGraph graph_;
  Executor exec_;
};

TEST_F(MultiEdgeTest, TwoEdgesBetweenSamePair) {
  EXPECT_EQ(graph_.num_edges(), 2);
  EXPECT_EQ(graph_.edge(0).from, graph_.edge(1).from);
  EXPECT_EQ(graph_.edge(0).to, graph_.edge(1).to);
}

TEST_F(MultiEdgeTest, DistinctTreesOverSameVertexSet) {
  const JoinTreeCatalog& trees = graph_.catalog(2);
  // 2 singletons + 2 distinct two-vertex trees (one per edge).
  ASSERT_EQ(trees.size(), 4);
  int two_vertex = 0;
  for (int t = 0; t < trees.size(); ++t) {
    two_vertex += trees.tree(t).NumVertices() == 2;
  }
  EXPECT_EQ(two_vertex, 2);
}

TEST_F(MultiEdgeTest, EdgesHaveDifferentSemantics) {
  int game = db_.RelationIdByName("Game");
  int team = db_.RelationIdByName("Team");
  JoinTree home = JoinTree::Single(game);
  home = ExtendTree(home, graph_, 0);  // home_id edge
  JoinTree away = JoinTree::Single(game);
  away = ExtendTree(away, graph_, 1);  // away_id edge
  PhrasePredicate lions{ColumnRef{team, 1}, Tokenize("Lions"), false};
  PhrasePredicate bears{ColumnRef{team, 1}, Tokenize("Bears"), false};
  // Lions play home only; Bears away only.
  EXPECT_TRUE(exec_.Exists(home, {lions}));
  EXPECT_FALSE(exec_.Exists(home, {bears}));
  EXPECT_FALSE(exec_.Exists(away, {lions}));
  EXPECT_TRUE(exec_.Exists(away, {bears}));
}

TEST_F(MultiEdgeTest, CandidatesDistinguishParallelEdges) {
  // ET: (team, venue). "Lions/north" is satisfied by the home edge
  // (game 1), not the away edge; "Hawks/north" by the away... Hawks play
  // home at south (game 2) and away at north (game 3).
  ExampleTable et({"team", "venue"});
  et.AddRow({"Lions", "north"});
  auto candidates = GenerateCandidates(db_, graph_, et, {});
  // Both parallel-edge candidates pass the column constraints.
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_FALSE(candidates[0].tree == candidates[1].tree);
  // Verify: only the home-edge candidate is valid for (Lions, north).
  int valid = 0;
  for (const CandidateQuery& q : candidates) {
    valid += exec_.Exists(q.tree, RowPredicates(q, et, 0));
  }
  EXPECT_EQ(valid, 1);
}

TEST_F(MultiEdgeTest, ReferencedRowsPerEdge) {
  // Edge 0 (home): teams 1 and 3 host; edge 1 (away): teams 2 and 3 visit.
  auto to_vec = [](std::span<const uint32_t> s) {
    return std::vector<uint32_t>(s.begin(), s.end());
  };
  EXPECT_EQ(to_vec(db_.ReferencedRows(0)), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(to_vec(db_.ReferencedRows(1)), (std::vector<uint32_t>{1, 2}));
}

TEST_F(MultiEdgeTest, SqlRendersBothJoinConditionsDistinctly) {
  int game = db_.RelationIdByName("Game");
  JoinTree home = ExtendTree(JoinTree::Single(game), graph_, 0);
  JoinTree away = ExtendTree(JoinTree::Single(game), graph_, 1);
  std::string home_sql = RenderVerificationSql(db_, graph_, home, {});
  std::string away_sql = RenderVerificationSql(db_, graph_, away, {});
  EXPECT_NE(home_sql.find("Game.home_id = Team.team_id"), std::string::npos);
  EXPECT_NE(away_sql.find("Game.away_id = Team.team_id"), std::string::npos);
  EXPECT_NE(home_sql, away_sql);
}

}  // namespace
}  // namespace qbe
