// ExecuteAll (core/execute_all.h): the full-materialization verifier agrees
// with VerifyAll and charges whole output sizes.

#include "core/execute_all.h"

#include <gtest/gtest.h>

#include "core/candidate_gen.h"
#include "core/verify_all.h"
#include "datagen/retailer.h"

namespace qbe {
namespace {

class ExecuteAllTest : public ::testing::Test {
 protected:
  ExecuteAllTest()
      : db_(MakeRetailerDatabase()), graph_(db_), probes_(DbView(db_), graph_) {}

  Database db_;
  SchemaGraph graph_;
  ShardExecSet probes_;
};

TEST_F(ExecuteAllTest, AgreesAndChargesOutputSize) {
  ExampleTable et = MakeFigure2ExampleTable();
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db_, graph_, et, {});
  VerifyContext ctx{db_, graph_, probes_, et, candidates};
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

TEST_F(ExecuteAllTest, FallbackUnderTinyCap) {
  ExampleTable et = MakeFigure2ExampleTable();
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db_, graph_, et, {});
  VerifyContext ctx{db_, graph_, probes_, et, candidates};
  VerifyAll reference;
  VerificationCounters c0;
  std::vector<bool> expected = reference.Verify(ctx, &c0);
  ExecuteAll tiny_cap(/*output_cap=*/1);
  VerificationCounters c1;
  EXPECT_EQ(tiny_cap.Verify(ctx, &c1), expected);
}

TEST_F(ExecuteAllTest, WithExactCells) {
  ExampleTable et({"A"});
  et.AddRowCells({EtCell{"Office", true}});  // never a whole cell
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db_, graph_, et, {});
  if (candidates.empty()) GTEST_SKIP();
  VerifyContext ctx{db_, graph_, probes_, et, candidates};
  ExecuteAll execute_all;
  VerificationCounters c;
  for (bool v : execute_all.Verify(ctx, &c)) EXPECT_FALSE(v);
}

}  // namespace
}  // namespace qbe
