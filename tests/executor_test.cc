#include "exec/executor.h"

#include <gtest/gtest.h>

#include "datagen/names.h"
#include "datagen/retailer.h"
#include "datagen/text_gen.h"
#include "exec/sql_render.h"
#include "schema/join_tree_catalog.h"
#include "test_util.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace qbe {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : db_(MakeRetailerDatabase()), graph_(db_), exec_(db_, graph_) {}

  PhrasePredicate Pred(const std::string& col, const std::string& phrase,
                       bool exact = false) {
    return PhrasePredicate{test::Col(db_, col), Tokenize(phrase), exact};
  }

  Database db_;
  SchemaGraph graph_;
  Executor exec_;
};

TEST_F(ExecutorTest, SingleRelationExists) {
  JoinTree t = JoinTree::Single(db_.RelationIdByName("Customer"));
  EXPECT_TRUE(exec_.Exists(t, {Pred("Customer.CustName", "Mike")}));
  EXPECT_FALSE(exec_.Exists(t, {Pred("Customer.CustName", "Zelda")}));
  EXPECT_TRUE(exec_.Exists(t, {}));  // relation non-empty
}

TEST_F(ExecutorTest, PaperCq1VerificationRow2) {
  // §4.1's example SQL: CQ1 verified for ET row 2 (Mary, iPad) succeeds —
  // Mary Smith bought the iPad Air.
  JoinTree cq1 = test::Tree(db_, graph_,
                            {"Sales", "Customer", "Device", "App"});
  EXPECT_TRUE(exec_.Exists(cq1, {Pred("Customer.CustName", "Mary"),
                                 Pred("Device.DevName", "iPad")}));
}

TEST_F(ExecutorTest, PaperCq2FailsForRow2) {
  // Example 5/6: the Owner-based candidates fail for row 2 — no employee
  // 'Mary' owns an 'iPad' (Mary Lee owns the Nexus 7).
  JoinTree cq2 = test::Tree(db_, graph_, {"Owner", "Employee", "Device"});
  EXPECT_FALSE(exec_.Exists(cq2, {Pred("Employee.EmpName", "Mary"),
                                  Pred("Device.DevName", "iPad")}));
  // ...but succeeds for row 1: Mike Stone owns the ThinkPad X1.
  EXPECT_TRUE(exec_.Exists(cq2, {Pred("Employee.EmpName", "Mike"),
                                 Pred("Device.DevName", "ThinkPad")}));
}

TEST_F(ExecutorTest, ConjunctionOnSameRelation) {
  JoinTree t = JoinTree::Single(db_.RelationIdByName("Customer"));
  EXPECT_TRUE(exec_.Exists(t, {Pred("Customer.CustName", "Mike"),
                               Pred("Customer.CustName", "Jones")}));
  EXPECT_FALSE(exec_.Exists(t, {Pred("Customer.CustName", "Mike"),
                                Pred("Customer.CustName", "Smith")}));
}

TEST_F(ExecutorTest, ExactMatchPredicate) {
  JoinTree t = JoinTree::Single(db_.RelationIdByName("App"));
  // 'Dropbox' is the entire cell for app 3; 'Office' is not a whole cell.
  EXPECT_TRUE(exec_.Exists(t, {Pred("App.AppName", "Dropbox", true)}));
  EXPECT_FALSE(exec_.Exists(t, {Pred("App.AppName", "Office", true)}));
  EXPECT_TRUE(exec_.Exists(t, {Pred("App.AppName", "Office 2013", true)}));
}

TEST_F(ExecutorTest, FiveRelationChain) {
  // ESR -> Employee <- Owner -> Device plus Owner -> App.
  JoinTree t = test::Tree(db_, graph_,
                          {"ESR", "Employee", "Owner", "Device", "App"});
  // Mike Stone filed 'Office crash' and owns ThinkPad X1 with Office 2013.
  EXPECT_TRUE(exec_.Exists(t, {Pred("ESR.Desc", "Office"),
                               Pred("Device.DevName", "ThinkPad"),
                               Pred("App.AppName", "Office")}));
  // Bob Nash filed no service request at all.
  EXPECT_FALSE(exec_.Exists(t, {Pred("Employee.EmpName", "Bob")}));
}

TEST_F(ExecutorTest, PredicateOnIntermediateRelation) {
  JoinTree t = test::Tree(db_, graph_, {"Sales", "Customer", "Device"});
  // Predicate only on the device; join must still hold.
  EXPECT_TRUE(exec_.Exists(t, {Pred("Device.DevName", "Nexus")}));
}

TEST_F(ExecutorTest, MaterializeProjectsJoinResult) {
  JoinTree cq1 = test::Tree(db_, graph_,
                            {"Sales", "Customer", "Device", "App"});
  std::vector<ColumnRef> projection = {test::Col(db_, "Customer.CustName"),
                                       test::Col(db_, "Device.DevName"),
                                       test::Col(db_, "App.AppName")};
  auto rows = exec_.Materialize(cq1, {}, projection, 100);
  ASSERT_EQ(rows.size(), 3u);  // three sales
  // Each sale joins its own customer/device/app (ids align in Figure 1).
  bool found = false;
  for (const auto& row : rows) {
    if (row[0] == "Mike Jones" && row[1] == "ThinkPad X1" &&
        row[2] == "Office 2013") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ExecutorTest, MaterializeRespectsLimit) {
  JoinTree t = JoinTree::Single(db_.RelationIdByName("Customer"));
  auto rows =
      exec_.Materialize(t, {}, {test::Col(db_, "Customer.CustName")}, 2);
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(ExecutorTest, MaterializeWithPredicates) {
  JoinTree t = test::Tree(db_, graph_, {"Owner", "Employee", "Device"});
  auto rows = exec_.Materialize(
      t, {Pred("Employee.EmpName", "Mary")},
      {test::Col(db_, "Employee.EmpName"), test::Col(db_, "Device.DevName")},
      100);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "Mary Lee");
  EXPECT_EQ(rows[0][1], "Nexus 7");
}

TEST_F(ExecutorTest, MaterializeAssignmentsShapes) {
  JoinTree t = test::Tree(db_, graph_, {"Sales", "Customer"});
  std::vector<int> order;
  auto assignments = exec_.MaterializeAssignments(t, {}, 100, &order);
  EXPECT_EQ(order.size(), 2u);
  EXPECT_EQ(assignments.size(), 3u);
  for (const auto& a : assignments) EXPECT_EQ(a.size(), 2u);
}

/// Property: the semijoin executor agrees with the brute-force reference on
/// randomized scaled retailer databases and random predicate sets.
TEST_F(ExecutorTest, PropertyAgreesWithBruteForce) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Database db = MakeScaledRetailerDatabase(6, 6, 5, 5, 10, 10, 6, seed);
    SchemaGraph graph(db);
    Executor exec(db, graph);
    Rng rng(seed * 101);
    const JoinTreeCatalog& trees = graph.catalog(4);
    TextGenerator text;
    for (int trial = 0; trial < 40; ++trial) {
      const JoinTree& tree = trees.tree(rng.NextBounded(trees.size()));
      // Random predicates on random text columns of the tree.
      std::vector<PhrasePredicate> predicates;
      tree.verts.ForEach([&](int v) {
        const Relation& rel = db.relation(v);
        for (int c = 0; c < rel.num_columns(); ++c) {
          if (rel.columns()[c].type != ColumnType::kText) continue;
          if (!rng.NextBool(0.5)) continue;
          // Half the time probe with a value drawn from the column itself.
          std::string phrase;
          if (rng.NextBool(0.5) && rel.num_rows() > 0) {
            const std::string_view cell =
                rel.TextAt(c, rng.NextBounded(rel.num_rows()));
            std::vector<std::string> tokens = Tokenize(cell);
            phrase = tokens[rng.NextBounded(tokens.size())];
          } else {
            phrase = std::string(text.Word(rng, FirstNames()));
          }
          predicates.push_back(
              PhrasePredicate{ColumnRef{v, c}, Tokenize(phrase), false});
        }
      });
      EXPECT_EQ(exec.Exists(tree, predicates),
                test::BruteForceExists(db, graph, tree, predicates))
          << RenderVerificationSql(db, graph, tree, predicates);
    }
  }
}

TEST_F(ExecutorTest, SqlRenderingMatchesPaperStyle) {
  JoinTree cq1 = test::Tree(db_, graph_,
                            {"Sales", "Customer", "Device", "App"});
  std::string sql = RenderVerificationSql(
      db_, graph_, cq1,
      {Pred("Customer.CustName", "Mary"), Pred("Device.DevName", "iPad")});
  EXPECT_NE(sql.find("SELECT TOP 1 *"), std::string::npos);
  EXPECT_NE(sql.find("Sales.CustId = Customer.CustId"), std::string::npos);
  EXPECT_NE(sql.find("CONTAINS(Customer.CustName, 'mary')"),
            std::string::npos);
}

}  // namespace
}  // namespace qbe
