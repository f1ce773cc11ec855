#include "core/weave.h"

#include <gtest/gtest.h>

#include "core/candidate_gen.h"
#include "core/verify_all.h"
#include "datagen/retailer.h"
#include "test_util.h"

namespace qbe {
namespace {

class WeaveTest : public ::testing::Test {
 protected:
  WeaveTest()
      : db_(MakeRetailerDatabase()),
        graph_(db_),
        probes_(DbView(db_), graph_),
        et_(MakeFigure2ExampleTable()) {
    candidates_ = GenerateCandidates(db_, graph_, et_, {});
  }

  VerifyContext Ctx() {
    return VerifyContext{db_, graph_, probes_, et_, candidates_};
  }

  Database db_;
  SchemaGraph graph_;
  ShardExecSet probes_;
  ExampleTable et_;
  std::vector<CandidateQuery> candidates_;
};

TEST_F(WeaveTest, JoinTreeWeaveAgreesWithVerifyAll) {
  VerifyAll reference;
  JoinTreeWeave weave;
  VerificationCounters c1, c2;
  VerifyContext ctx = Ctx();
  EXPECT_EQ(reference.Verify(ctx, &c1), weave.Verify(ctx, &c2));
}

TEST_F(WeaveTest, JoinTreeWeaveRowMajorAccounting) {
  // Row-major: 3 candidates verified on row 1 (all pass), then on row 2
  // (Owner-based fail), then the survivor on row 3: 3 + 3 + 1 = 7.
  JoinTreeWeave weave;
  VerificationCounters counters;
  VerifyContext ctx = Ctx();
  weave.Verify(ctx, &counters);
  EXPECT_EQ(counters.verifications, 7);
}

TEST_F(WeaveTest, TupleTreeWeaveAgrees) {
  VerifyAll reference;
  TupleTreeWeave weave;
  VerificationCounters c1, c2;
  VerifyContext ctx = Ctx();
  EXPECT_EQ(reference.Verify(ctx, &c1), weave.Verify(ctx, &c2));
}

TEST_F(WeaveTest, TupleTreeWeaveTracksMemory) {
  TupleTreeWeave weave;
  VerificationCounters counters;
  VerifyContext ctx = Ctx();
  weave.Verify(ctx, &counters);
  // The surviving CQ1 materializes one tuple tree per row; peak memory
  // must reflect retained trees.
  EXPECT_GT(counters.peak_memory_bytes, 0u);
}

TEST_F(WeaveTest, TupleTreeWeaveMemoryGrowsWithData) {
  // On a larger database, Weave's materialized tuple trees grow — the
  // §6.3/Figure 16 pathology in miniature.
  Database big = MakeScaledRetailerDatabase(50, 50, 20, 20, 400, 400, 100,
                                            777);
  SchemaGraph graph(big);
  ShardExecSet probes(DbView(big), graph);
  ExampleTable et({"A", "B"});
  // A sparse, low-selectivity ET: common first names.
  et.AddRow({"Mike", ""});
  et.AddRow({"", "laptop"});
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(big, graph, et, {});
  if (candidates.empty()) GTEST_SKIP() << "no candidates for this seed";
  VerifyContext ctx{big, graph, probes, et, candidates};
  TupleTreeWeave weave;
  VerificationCounters counters;
  weave.Verify(ctx, &counters);
  TupleTreeWeave small_cap(/*per_query_row_cap=*/2);
  VerificationCounters capped;
  small_cap.Verify(ctx, &capped);
  EXPECT_GE(counters.peak_memory_bytes, capped.peak_memory_bytes);
}

TEST_F(WeaveTest, EmptyCandidates) {
  std::vector<CandidateQuery> none;
  VerifyContext ctx{db_, graph_, probes_, et_, none};
  JoinTreeWeave weave;
  VerificationCounters counters;
  EXPECT_TRUE(weave.Verify(ctx, &counters).empty());
}

}  // namespace
}  // namespace qbe
