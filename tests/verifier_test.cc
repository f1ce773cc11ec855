#include "core/verifier.h"

#include <gtest/gtest.h>

#include "core/candidate_gen.h"
#include "core/simple_prune.h"
#include "core/verify_all.h"
#include "datagen/retailer.h"
#include "test_util.h"

namespace qbe {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest()
      : db_(MakeRetailerDatabase()),
        graph_(db_),
        probes_(DbView(db_), graph_),
        et_(MakeFigure2ExampleTable()) {
    candidates_ = GenerateCandidates(db_, graph_, et_, {});
  }

  VerifyContext Ctx() {
    return VerifyContext{db_, graph_, probes_, et_, candidates_};
  }

  int ValidCount(const std::vector<bool>& valid) {
    int n = 0;
    for (bool v : valid) n += v;
    return n;
  }

  Database db_;
  SchemaGraph graph_;
  ShardExecSet probes_;
  ExampleTable et_;
  std::vector<CandidateQuery> candidates_;
};

TEST_F(VerifierTest, MakeRowOrderGiven) {
  EXPECT_EQ(MakeRowOrder(et_, RowOrder::kGiven, 1),
            (std::vector<int>{0, 1, 2}));
}

TEST_F(VerifierTest, MakeRowOrderDenseFirst) {
  // Row 0 has 3 non-empty cells, rows 1 and 2 have 2 each (stable order).
  EXPECT_EQ(MakeRowOrder(et_, RowOrder::kDenseFirst, 1),
            (std::vector<int>{0, 1, 2}));
}

TEST_F(VerifierTest, MakeRowOrderRandomIsSeededPermutation) {
  std::vector<int> a = MakeRowOrder(et_, RowOrder::kRandom, 5);
  std::vector<int> b = MakeRowOrder(et_, RowOrder::kRandom, 5);
  EXPECT_EQ(a, b);
  std::vector<int> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2}));
}

TEST_F(VerifierTest, VerifyAllFindsOnlyCq1) {
  VerifyAll algo;
  VerificationCounters counters;
  VerifyContext ctx = Ctx();
  std::vector<bool> valid = algo.Verify(ctx, &counters);
  EXPECT_EQ(ValidCount(valid), 1);
  // The valid candidate is the Sales-based CQ1.
  JoinTree cq1 = test::Tree(db_, graph_,
                            {"Sales", "Customer", "Device", "App"});
  for (size_t q = 0; q < candidates_.size(); ++q) {
    if (valid[q]) {
      EXPECT_TRUE(candidates_[q].tree == cq1);
    }
  }
  EXPECT_GT(counters.verifications, 0);
  EXPECT_GT(counters.estimated_cost, 0);
}

TEST_F(VerifierTest, VerifyAllVerificationAccounting) {
  // With the 3 default-l candidates: CQ1 passes all 3 rows (3 checks);
  // the two Owner-based candidates pass row 1 and fail row 2 (2 checks
  // each) under dense-first order = 3 + 2 + 2 = 7.
  VerifyAll algo(RowOrder::kDenseFirst);
  VerificationCounters counters;
  VerifyContext ctx = Ctx();
  algo.Verify(ctx, &counters);
  EXPECT_EQ(counters.verifications, 7);
}

TEST_F(VerifierTest, EvalEngineCachesPredicatelessFilters) {
  VerificationCounters counters;
  VerifyContext ctx = Ctx();
  EvalEngine engine(ctx, &counters);
  Filter f;
  f.tree = test::Tree(db_, graph_, {"Sales", "Customer"});
  f.phi.assign(3, ColumnRef{});
  f.row = 0;
  EXPECT_TRUE(engine.EvaluateFilter(f));
  EXPECT_TRUE(engine.EvaluateFilter(f));
  EXPECT_EQ(counters.verifications, 1);  // second call served from cache
}

TEST_F(VerifierTest, SimplePruneAgreesWithVerifyAll) {
  VerifyAll verify_all;
  SimplePrune simple_prune;
  VerificationCounters c1, c2;
  VerifyContext ctx = Ctx();
  EXPECT_EQ(verify_all.Verify(ctx, &c1), simple_prune.Verify(ctx, &c2));
}

TEST_F(VerifierTest, SimplePrunePrunesViaFailureDependency) {
  // Build the Example 6 pair: small CQ (subtree) ordered before its
  // supertree candidate; the failure on row 2 must prune the supertree
  // without verifying it.
  std::vector<CandidateQuery> pair;
  CandidateQuery small;
  small.tree = test::Tree(db_, graph_, {"Owner", "Employee", "Device"});
  small.projection = {test::Col(db_, "Employee.EmpName"),
                      test::Col(db_, "Device.DevName"),
                      test::Col(db_, "Employee.EmpName")};
  CandidateQuery big;
  big.tree = test::Tree(db_, graph_, {"Owner", "Employee", "Device", "App"});
  big.projection = small.projection;
  pair.push_back(big);    // order in the vector must not matter:
  pair.push_back(small);  // SimplePrune sorts by tree size itself.

  VerifyContext ctx{db_, graph_, probes_, et_, pair};
  VerificationCounters prune_counters, all_counters;
  SimplePrune simple_prune;
  VerifyAll verify_all;
  std::vector<bool> pruned = simple_prune.Verify(ctx, &prune_counters);
  std::vector<bool> reference = verify_all.Verify(ctx, &all_counters);
  EXPECT_EQ(pruned, reference);
  EXPECT_EQ(prune_counters.pruned_without_verification, 1);
  EXPECT_LT(prune_counters.verifications, all_counters.verifications);
}

TEST_F(VerifierTest, CountersAddAggregates) {
  VerificationCounters a, b;
  a.verifications = 3;
  a.estimated_cost = 10;
  a.peak_memory_bytes = 100;
  b.verifications = 2;
  b.estimated_cost = 5;
  b.peak_memory_bytes = 200;
  a.Add(b);
  EXPECT_EQ(a.verifications, 5);
  EXPECT_EQ(a.estimated_cost, 15);
  EXPECT_EQ(a.peak_memory_bytes, 200u);
}

}  // namespace
}  // namespace qbe
