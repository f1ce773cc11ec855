#include "core/explain.h"

#include <gtest/gtest.h>

#include "core/keyword_search.h"
#include "datagen/retailer.h"

namespace qbe {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest() : db_(MakeRetailerDatabase()) {}
  Database db_;
};

TEST_F(ExplainTest, Figure2Explain) {
  DiscoveryExplain explain =
      ExplainDiscovery(db_, MakeFigure2ExampleTable());
  ASSERT_EQ(explain.et_columns.size(), 3u);
  EXPECT_EQ(explain.et_columns[0].name, "A");
  EXPECT_EQ(explain.et_columns[0].candidate_columns,
            (std::vector<std::string>{"Customer.CustName",
                                      "Employee.EmpName"}));
  EXPECT_EQ(explain.et_columns[1].candidate_columns,
            (std::vector<std::string>{"Device.DevName"}));
  EXPECT_EQ(explain.num_candidates, 3u);
  EXPECT_EQ(explain.num_valid, 1u);
  EXPECT_GT(explain.num_filters, 0u);
  EXPECT_GT(explain.num_trivial_filters, 0u);
  EXPECT_LT(explain.num_trivial_filters, explain.num_filters);
  // All three candidates have 4-relation trees.
  EXPECT_EQ(explain.candidates_by_tree_size.at(4), 3u);
}

TEST_F(ExplainTest, MatchesPlainDiscovery) {
  DiscoveryOptions options;
  DiscoveryExplain explain =
      ExplainDiscovery(db_, MakeFigure2ExampleTable(), options);
  DiscoveryResult plain =
      DiscoverQueries(db_, MakeFigure2ExampleTable(), options);
  ASSERT_EQ(explain.queries.size(), plain.queries.size());
  for (size_t i = 0; i < plain.queries.size(); ++i) {
    EXPECT_EQ(explain.queries[i].sql, plain.queries[i].sql);
  }
}

TEST_F(ExplainTest, ToStringMentionsEveryStage) {
  std::string text =
      ExplainDiscovery(db_, MakeFigure2ExampleTable()).ToString();
  EXPECT_NE(text.find("candidate projection columns"), std::string::npos);
  EXPECT_NE(text.find("Customer.CustName"), std::string::npos);
  EXPECT_NE(text.find("filter universe"), std::string::npos);
  EXPECT_NE(text.find("valid queries: 1"), std::string::npos);
  EXPECT_NE(text.find("SELECT"), std::string::npos);
}

TEST_F(ExplainTest, UnmatchableColumnShowsNone) {
  ExampleTable et({"A"});
  et.AddRow({"Zelda"});
  DiscoveryExplain explain = ExplainDiscovery(db_, et);
  EXPECT_TRUE(explain.et_columns[0].candidate_columns.empty());
  EXPECT_NE(explain.ToString().find("(none)"), std::string::npos);
}

// An ET the discovery refuses (here a fully-empty column) gets the same
// typed error from explain instead of reaching retrieval.
TEST_F(ExplainTest, MalformedEtReturnsDiscoveryError) {
  ExampleTable et = ExampleTable::WithColumns(2);
  et.AddRow({"Mike", ""});
  et.AddRow({"Mary", ""});
  DiscoveryResult plain = DiscoverQueries(db_, et);
  ASSERT_FALSE(plain.ok());
  DiscoveryExplain explain = ExplainDiscovery(db_, et);
  EXPECT_FALSE(explain.ok());
  EXPECT_EQ(explain.error, plain.error);
  EXPECT_TRUE(explain.et_columns.empty());
  EXPECT_TRUE(explain.queries.empty());
}

TEST_F(ExplainTest, KeywordSearchSingleRow) {
  // m = 1: single-tuple keyword search (related-work mode).
  DiscoveryResult result = DiscoverByKeywords(db_, {"Mike", "ThinkPad"});
  ASSERT_FALSE(result.queries.empty());
  // The top query joins Sales or Owner; all results must contain both
  // keywords in one joined row, which Sales row 1 does.
  EXPECT_NE(result.queries[0].sql.find("SELECT"), std::string::npos);
  for (const DiscoveredQuery& q : result.queries) {
    EXPECT_EQ(q.matched_rows, 1);
  }
}

TEST_F(ExplainTest, KeywordSearchNoMatch) {
  EXPECT_TRUE(DiscoverByKeywords(db_, {"Zelda"}).queries.empty());
}

}  // namespace
}  // namespace qbe
