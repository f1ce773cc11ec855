#include "core/session.h"

#include <gtest/gtest.h>

#include "datagen/retailer.h"

namespace qbe {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : db_(MakeRetailerDatabase()) {}
  Database db_;
};

TEST_F(SessionTest, IncrementalRefinementNarrowsResults) {
  DiscoverySession session(db_);
  // One row "Mike": ambiguous — customer or employee queries both valid.
  session.AddRow({"Mike"});
  DiscoveryResult first = session.Discover();
  ASSERT_GT(first.queries.size(), 1u);
  // Adding "Mary" then "Bob" keeps both name columns alive; adding a
  // device narrows the join structure.
  session.RemoveLastRow();
  session.AddRow({"Mike"});
  EXPECT_EQ(session.num_rows(), 1);
}

TEST_F(SessionTest, MatchesBatchDiscovery) {
  DiscoverySession session(db_);
  session.SetTable(MakeFigure2ExampleTable());
  DiscoveryResult incremental = session.Discover();
  DiscoveryResult batch = DiscoverQueries(db_, MakeFigure2ExampleTable());
  ASSERT_EQ(incremental.queries.size(), batch.queries.size());
  for (size_t i = 0; i < batch.queries.size(); ++i) {
    EXPECT_EQ(incremental.queries[i].sql, batch.queries[i].sql);
  }
}

TEST_F(SessionTest, CacheReusedAcrossSteps) {
  ExampleTable et = MakeFigure2ExampleTable();
  DiscoverySession session(db_);
  session.AddRow({"Mike", "ThinkPad", "Office"});
  session.Discover();
  int64_t after_first = session.total_verifications();
  EXPECT_GT(after_first, 0);
  EXPECT_GT(session.cache_size(), 0u);

  session.AddRow({"Mary", "iPad", ""});
  session.Discover();
  // Row-1 verifications must come from the cache.
  EXPECT_GT(session.cache_hits(), 0);

  session.AddRow({"Bob", "", "Dropbox"});
  DiscoveryResult final_result = session.Discover();
  // Same answer as batch discovery over the whole ET.
  DiscoveryResult batch = DiscoverQueries(db_, et);
  EXPECT_EQ(final_result.queries.size(), batch.queries.size());
}

TEST_F(SessionTest, RerunIsFullyCached) {
  DiscoverySession session(db_);
  session.SetTable(MakeFigure2ExampleTable());
  session.Discover();
  int64_t once = session.total_verifications();
  session.Discover();
  // Second identical run executes nothing new.
  EXPECT_EQ(session.total_verifications(), once);
}

TEST_F(SessionTest, RemoveThenAddDifferentRowServesFreshOutcomes) {
  // Regression guard for the cache's reuse contract: outcomes are keyed by
  // (join tree, predicate values), never by row position — so replacing
  // the last row with a different one must not serve the removed row's
  // outcomes for the new row, while still reusing the surviving rows'.
  DiscoverySession session(db_);
  session.AddRow({"Mike", "ThinkPad", "Office"});
  EXPECT_FALSE(session.Discover().queries.empty());  // caches Mike's outcomes
  session.AddRow({"Zelda", "", ""});  // matches nothing
  EXPECT_TRUE(session.Discover().queries.empty());

  session.RemoveLastRow();
  session.AddRow({"Mary", "iPad", ""});
  DiscoveryResult refined = session.Discover();
  // "Zelda failed" must not leak into Mary's verifications...
  EXPECT_FALSE(refined.queries.empty());

  // ...and the answer is exactly the cacheless batch answer for the
  // current table.
  ExampleTable current = ExampleTable::WithColumns(3);
  current.AddRow({"Mike", "ThinkPad", "Office"});
  current.AddRow({"Mary", "iPad", ""});
  DiscoveryResult batch = DiscoverQueries(db_, current);
  ASSERT_EQ(refined.queries.size(), batch.queries.size());
  for (size_t i = 0; i < batch.queries.size(); ++i) {
    EXPECT_EQ(refined.queries[i].sql, batch.queries[i].sql);
  }
  // Mike's outcomes were reused across the row swap.
  EXPECT_GT(session.cache_hits(), 0);
}

TEST_F(SessionTest, RemoveLastRowUndoes) {
  DiscoverySession session(db_);
  session.AddRow({"Mike", "ThinkPad", "Office"});
  session.AddRow({"Zelda", "", ""});  // matches nothing
  EXPECT_TRUE(session.Discover().queries.empty());
  session.RemoveLastRow();
  EXPECT_FALSE(session.Discover().queries.empty());
}

TEST_F(SessionTest, SetTableResetsShape) {
  DiscoverySession session(db_);
  session.AddRow({"Mike"});
  ExampleTable two_cols({"A", "B"});
  two_cols.AddRow({"Mike", "ThinkPad"});
  session.SetTable(two_cols);
  EXPECT_EQ(session.table().num_columns(), 2);
  EXPECT_FALSE(session.Discover().queries.empty());
}

TEST_F(SessionTest, CacheKeyIgnoresPredicateOrder) {
  SchemaGraph graph(db_);
  JoinTree tree = JoinTree::Single(db_.RelationIdByName("Customer"));
  int customer = db_.RelationIdByName("Customer");
  PhrasePredicate a{ColumnRef{customer, 1}, {"mike"}, false};
  PhrasePredicate b{ColumnRef{customer, 1}, {"jones"}, false};
  EXPECT_EQ(MakeEvalCacheKey(db_, tree, {a, b}, {}),
            MakeEvalCacheKey(db_, tree, {b, a}, {}));
  EXPECT_NE(MakeEvalCacheKey(db_, tree, {a}, {}),
            MakeEvalCacheKey(db_, tree, {b}, {}));
  // Exactness is part of the key.
  PhrasePredicate a_exact = a;
  a_exact.exact = true;
  EXPECT_NE(MakeEvalCacheKey(db_, tree, {a}, {}),
            MakeEvalCacheKey(db_, tree, {a_exact}, {}));
}

}  // namespace
}  // namespace qbe
