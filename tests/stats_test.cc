#include "exec/stats.h"

#include <gtest/gtest.h>

#include "core/candidate_gen.h"
#include "core/execute_all.h"
#include "core/filter_verifier.h"
#include "core/verify_all.h"
#include "datagen/retailer.h"
#include "test_util.h"
#include "text/tokenizer.h"

namespace qbe {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  StatsTest()
      : db_(MakeRetailerDatabase()),
        graph_(db_),
        probes_(DbView(db_), graph_),
        stats_(db_) {}

  Database db_;
  SchemaGraph graph_;
  ShardExecSet probes_;
  Statistics stats_;
};

TEST_F(StatsTest, RelationRows) {
  EXPECT_EQ(stats_.relation_rows(db_.RelationIdByName("Customer")), 3.0);
  EXPECT_EQ(stats_.relation_rows(db_.RelationIdByName("ESR")), 2.0);
}

TEST_F(StatsTest, EdgeFanout) {
  // Sales -> Customer: 3 referencing rows over 3 distinct keys = 1.0.
  EXPECT_DOUBLE_EQ(stats_.edge_fanout(0), 1.0);
}

TEST_F(StatsTest, PhraseMatchesAreTokenMinimum) {
  ColumnRef desc = test::Col(db_, "ESR.Desc");
  // 'office' appears in 1 Desc row; 'crash' in 1; phrase bound = 1.
  EXPECT_DOUBLE_EQ(stats_.EstimatePhraseMatches(desc, {"office"}), 1.0);
  EXPECT_DOUBLE_EQ(
      stats_.EstimatePhraseMatches(desc, {"office", "crash"}), 1.0);
  EXPECT_DOUBLE_EQ(stats_.EstimatePhraseMatches(desc, {"zelda"}), 0.0);
  // Empty phrase = whole column.
  EXPECT_DOUBLE_EQ(stats_.EstimatePhraseMatches(desc, {}), 2.0);
}

TEST_F(StatsTest, PredicateSelectivityBounded) {
  PhrasePredicate p{test::Col(db_, "Customer.CustName"), {"mike"}, false};
  double sel = stats_.PredicateSelectivity(p);
  EXPECT_GT(sel, 0.0);
  EXPECT_LE(sel, 1.0);
  EXPECT_DOUBLE_EQ(sel, 1.0 / 3.0);
}

TEST_F(StatsTest, JoinCardinalityMatchesTinyTruth) {
  // Sales ⋈ Customer: |Sales| × |Customer| / |Customer| = 3.
  JoinTree tree = test::Tree(db_, graph_, {"Sales", "Customer"});
  EXPECT_DOUBLE_EQ(stats_.EstimateJoinCardinality(graph_, tree, {}), 3.0);
  // With a predicate matching one customer: 1.
  PhrasePredicate p{test::Col(db_, "Customer.CustName"), {"mike"}, false};
  EXPECT_DOUBLE_EQ(stats_.EstimateJoinCardinality(graph_, tree, {p}), 1.0);
}

TEST_F(StatsTest, ProbeCostGrowsWithTreeSize) {
  JoinTree small = test::Tree(db_, graph_, {"Sales", "Customer"});
  JoinTree large =
      test::Tree(db_, graph_, {"Sales", "Customer", "Device", "App"});
  PhrasePredicate p{test::Col(db_, "Customer.CustName"), {"mike"}, false};
  EXPECT_LT(stats_.EstimateProbeCost(graph_, small, {p}),
            stats_.EstimateProbeCost(graph_, large, {p}));
  EXPECT_GE(stats_.EstimateProbeCost(graph_, small, {}), 1.0);
}

TEST_F(StatsTest, EstimatedCostModelAgreesOnValidSet) {
  ExampleTable et = MakeFigure2ExampleTable();
  CandidateGenOptions gen;
  gen.max_join_tree_size = 5;
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db_, graph_, et, gen);
  VerifyContext ctx{db_, graph_, probes_, et, candidates, 1};
  VerifyAll reference;
  VerificationCounters c0;
  std::vector<bool> expected = reference.Verify(ctx, &c0);

  FilterVerifier::Options options;
  options.cost_model = FilterCostModel::kEstimated;
  options.stats = &stats_;
  FilterVerifier filter(options);
  VerificationCounters c1;
  EXPECT_EQ(filter.Verify(ctx, &c1), expected);
  EXPECT_GT(c1.verifications, 0);
}

TEST_F(StatsTest, ExecuteAllAgreesAndChargesOutputSize) {
  ExampleTable et = MakeFigure2ExampleTable();
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db_, graph_, et, {});
  VerifyContext ctx{db_, graph_, probes_, et, candidates, 1};
  VerifyAll reference;
  VerificationCounters c0;
  std::vector<bool> expected = reference.Verify(ctx, &c0);

  ExecuteAll execute_all;
  VerificationCounters c1;
  EXPECT_EQ(execute_all.Verify(ctx, &c1), expected);
  // One verification per candidate, but cost counts whole outputs: the
  // Sales and Owner candidates produce 3 tuples each, the ESR-based one 2
  // (only employees e1 and e2 filed service requests) — 8 tuples over
  // 4-relation trees.
  EXPECT_EQ(c1.verifications, static_cast<int64_t>(candidates.size()));
  EXPECT_EQ(c1.estimated_cost, 8 * 4);
}

TEST_F(StatsTest, ExecuteAllFallbackUnderTinyCap) {
  ExampleTable et = MakeFigure2ExampleTable();
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db_, graph_, et, {});
  VerifyContext ctx{db_, graph_, probes_, et, candidates, 1};
  VerifyAll reference;
  VerificationCounters c0;
  std::vector<bool> expected = reference.Verify(ctx, &c0);
  ExecuteAll tiny_cap(/*output_cap=*/1);
  VerificationCounters c1;
  EXPECT_EQ(tiny_cap.Verify(ctx, &c1), expected);
}

TEST_F(StatsTest, ExecuteAllWithExactCells) {
  ExampleTable et({"A"});
  et.AddRowCells({EtCell{"Office", true}});  // never a whole cell
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db_, graph_, et, {});
  if (candidates.empty()) GTEST_SKIP();
  VerifyContext ctx{db_, graph_, probes_, et, candidates, 1};
  ExecuteAll execute_all;
  VerificationCounters c;
  for (bool v : execute_all.Verify(ctx, &c)) EXPECT_FALSE(v);
}

}  // namespace
}  // namespace qbe
