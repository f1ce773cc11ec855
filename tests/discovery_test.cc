#include "core/discovery.h"

#include <gtest/gtest.h>

#include "datagen/retailer.h"
#include "test_util.h"

namespace qbe {
namespace {

class DiscoveryTest : public ::testing::Test {
 protected:
  DiscoveryTest() : db_(MakeRetailerDatabase()) {}
  Database db_;
};

TEST_F(DiscoveryTest, Figure2EndToEnd) {
  ExampleTable et = MakeFigure2ExampleTable();
  DiscoveryResult result = DiscoverQueries(db_, et);
  EXPECT_EQ(result.num_candidates, 3u);
  ASSERT_EQ(result.queries.size(), 1u);
  const DiscoveredQuery& q = result.queries[0];
  EXPECT_EQ(q.matched_rows, 3);
  // The unique valid query of Example 3.
  EXPECT_NE(q.sql.find("Customer.CustName AS A"), std::string::npos);
  EXPECT_NE(q.sql.find("Device.DevName AS B"), std::string::npos);
  EXPECT_NE(q.sql.find("App.AppName AS C"), std::string::npos);
  EXPECT_NE(q.sql.find("Sales.CustId = Customer.CustId"), std::string::npos);
  // Candidate column statistics per ET column: 2, 1, 2.
  EXPECT_EQ(result.candidate_columns_per_et_column,
            (std::vector<size_t>{2, 1, 2}));
}

TEST_F(DiscoveryTest, AllAlgorithmsProduceSameQueries) {
  ExampleTable et = MakeFigure2ExampleTable();
  DiscoveryOptions base;
  DiscoveryResult reference = DiscoverQueries(db_, et, base);
  for (Algorithm algo : {Algorithm::kVerifyAll, Algorithm::kSimplePrune,
                         Algorithm::kFilterExact, Algorithm::kWeave}) {
    DiscoveryOptions options = base;
    options.algorithm = algo;
    DiscoveryResult result = DiscoverQueries(db_, et, options);
    ASSERT_EQ(result.queries.size(), reference.queries.size());
    for (size_t i = 0; i < result.queries.size(); ++i) {
      EXPECT_EQ(result.queries[i].sql, reference.queries[i].sql);
    }
  }
}

TEST_F(DiscoveryTest, RankingPrefersSmallerTrees) {
  // A single-cell ET matched by both a 1-relation query and larger joins:
  // the singleton must rank first.
  ExampleTable et({"A"});
  et.AddRow({"Evernote"});
  DiscoveryResult result = DiscoverQueries(db_, et);
  ASSERT_GE(result.queries.size(), 1u);
  for (size_t i = 1; i < result.queries.size(); ++i) {
    EXPECT_GE(result.queries[0].score, result.queries[i].score);
    EXPECT_LE(result.queries[0].query.tree.NumVertices(),
              result.queries[i].query.tree.NumVertices());
  }
}

TEST_F(DiscoveryTest, MinRowSupportRelaxation) {
  // An ET whose third row is impossible: strict discovery returns nothing,
  // min_row_support = 2 resurrects the queries satisfying two rows.
  ExampleTable et({"A", "B"});
  et.AddRow({"Mike", "ThinkPad"});
  et.AddRow({"Mary", "iPad"});
  et.AddRow({"Mike", "Nexus"});  // no Mike bought/owns a Nexus
  DiscoveryOptions strict;
  DiscoveryResult none = DiscoverQueries(db_, et, strict);
  EXPECT_TRUE(none.queries.empty());

  DiscoveryOptions relaxed;
  relaxed.min_row_support = 2;
  DiscoveryResult some = DiscoverQueries(db_, et, relaxed);
  ASSERT_FALSE(some.queries.empty());
  for (const DiscoveredQuery& q : some.queries) {
    EXPECT_GE(q.matched_rows, 2);
  }
}

TEST_F(DiscoveryTest, ExactMatchCells) {
  // 'Office' appears as a token but never as a whole AppName cell; with an
  // exact cell the App-based query disappears while Desc-based queries
  // containing exactly "Office crash"... also fail. Expect zero from
  // AppName; with the non-exact cell there are valid queries.
  ExampleTable loose({"A"});
  loose.AddRow({"Evernote"});
  EXPECT_FALSE(DiscoverQueries(db_, loose).queries.empty());

  ExampleTable exact({"A"});
  exact.AddRowCells({EtCell{"Office", true}});
  DiscoveryResult result = DiscoverQueries(db_, exact);
  EXPECT_TRUE(result.queries.empty());

  ExampleTable exact_full({"A"});
  exact_full.AddRowCells({EtCell{"Office 2013", true}});
  EXPECT_FALSE(DiscoverQueries(db_, exact_full).queries.empty());
}

TEST_F(DiscoveryTest, UnmatchableValueYieldsNoCandidates) {
  ExampleTable et({"A"});
  et.AddRow({"Zelda"});
  DiscoveryResult result = DiscoverQueries(db_, et);
  EXPECT_EQ(result.num_candidates, 0u);
  EXPECT_TRUE(result.queries.empty());
}

TEST_F(DiscoveryTest, NoRankingWhenDisabled) {
  ExampleTable et({"A"});
  et.AddRow({"Evernote"});
  DiscoveryOptions options;
  options.rank_results = false;
  for (const DiscoveredQuery& q : DiscoverQueries(db_, et, options).queries) {
    EXPECT_EQ(q.score, 0.0);
  }
}

TEST_F(DiscoveryTest, IllFormedTableReturnsError) {
  ExampleTable et({"A", "B"});
  et.AddRow({"Mike", ""});  // column B fully empty
  DiscoveryResult result = DiscoverQueries(db_, et);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.queries.empty());
  EXPECT_EQ(result.num_candidates, 0u);

  ExampleTable good({"A", "B"});
  good.AddRow({"Mike", "ThinkPad"});
  EXPECT_TRUE(DiscoverQueries(db_, good).ok());
}

TEST_F(DiscoveryTest, MoreCandidatesThanTheCapIsAnError) {
  // Figure 2 has 3 candidates: a cap of 2 must not verify a truncated
  // prefix and report it as the answer.
  ExampleTable et = MakeFigure2ExampleTable();
  DiscoveryOptions options;
  options.max_candidates = 2;
  DiscoveryResult capped = DiscoverQueries(db_, et, options);
  EXPECT_FALSE(capped.ok());
  EXPECT_FALSE(capped.timed_out);
  EXPECT_EQ(capped.error, "ET too broad: more than 2 candidates");
  EXPECT_TRUE(capped.queries.empty());

  options.max_candidates = 3;  // exactly enough
  DiscoveryResult full = DiscoverQueries(db_, et, options);
  EXPECT_TRUE(full.ok());
  EXPECT_EQ(full.num_candidates, 3u);
  EXPECT_FALSE(full.queries.empty());
}

TEST_F(DiscoveryTest, CountersPopulated) {
  ExampleTable et = MakeFigure2ExampleTable();
  DiscoveryResult result = DiscoverQueries(db_, et);
  EXPECT_GT(result.counters.verifications, 0);
  EXPECT_GT(result.counters.estimated_cost, 0);
  EXPECT_GE(result.candidate_gen_seconds, 0.0);
}

}  // namespace
}  // namespace qbe
