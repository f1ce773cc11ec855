#include "core/filter_verifier.h"

#include <gtest/gtest.h>

#include "core/candidate_gen.h"
#include "core/discovery.h"
#include "core/verify_all.h"
#include "datagen/cust_like.h"
#include "datagen/et_gen.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "ingest/db_view.h"
#include "test_util.h"

namespace qbe {
namespace {

class FilterVerifierTest : public ::testing::Test {
 protected:
  FilterVerifierTest()
      : db_(MakeRetailerDatabase()),
        graph_(db_),
        probes_(DbView(db_), graph_),
        et_(MakeFigure2ExampleTable()) {
    candidates_ = GenerateCandidates(db_, graph_, et_, {});
  }

  VerifyContext Ctx() {
    return VerifyContext{db_, graph_, probes_, et_, candidates_, 42};
  }

  Database db_;
  SchemaGraph graph_;
  ShardExecSet probes_;
  ExampleTable et_;
  std::vector<CandidateQuery> candidates_;
};

TEST_F(FilterVerifierTest, AgreesWithVerifyAll) {
  VerifyAll reference;
  FilterVerifier filter;
  VerificationCounters c1, c2;
  VerifyContext ctx = Ctx();
  EXPECT_EQ(reference.Verify(ctx, &c1), filter.Verify(ctx, &c2));
}

TEST_F(FilterVerifierTest, LazyGreedyAgreesToo) {
  VerifyAll reference;
  FilterVerifier lazy(0.5, true);
  VerificationCounters c1, c2;
  VerifyContext ctx = Ctx();
  EXPECT_EQ(reference.Verify(ctx, &c1), lazy.Verify(ctx, &c2));
}

TEST_F(FilterVerifierTest, RobustToFailurePrior) {
  VerifyContext ctx = Ctx();
  VerifyAll reference;
  VerificationCounters c0;
  std::vector<bool> expected = reference.Verify(ctx, &c0);
  for (double prior : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    FilterVerifier filter(prior, false);
    VerificationCounters c;
    EXPECT_EQ(filter.Verify(ctx, &c), expected) << "prior " << prior;
  }
}

TEST_F(FilterVerifierTest, HandlesEmptyCandidateSet) {
  std::vector<CandidateQuery> none;
  VerifyContext ctx{db_, graph_, probes_, et_, none, 42};
  FilterVerifier filter;
  VerificationCounters counters;
  EXPECT_TRUE(filter.Verify(ctx, &counters).empty());
  EXPECT_EQ(counters.verifications, 0);
}

TEST_F(FilterVerifierTest, SingleValidCandidateEvaluatesBasicFilters) {
  // Only CQ1 — valid — so every row's basic filter must be confirmed
  // (directly or via success dependency): at least one verification, and
  // the result is valid.
  std::vector<CandidateQuery> only_cq1;
  for (const CandidateQuery& q : candidates_) {
    if (q.tree ==
        test::Tree(db_, graph_, {"Sales", "Customer", "Device", "App"})) {
      only_cq1.push_back(q);
    }
  }
  ASSERT_EQ(only_cq1.size(), 1u);
  VerifyContext ctx{db_, graph_, probes_, et_, only_cq1, 42};
  FilterVerifier filter;
  VerificationCounters counters;
  std::vector<bool> valid = filter.Verify(ctx, &counters);
  EXPECT_TRUE(valid[0]);
  EXPECT_GE(counters.verifications, 1);
}

TEST_F(FilterVerifierTest, SharedFilterPruningBeatsPerCandidateWork) {
  // The Example 2 scenario: many candidates sharing a failing subtree. The
  // filter approach should resolve all Owner-based candidates without
  // evaluating each one per row. Build an inflated candidate set by using
  // max join length 5 (14 candidates on this database).
  CandidateGenOptions options;
  options.max_join_tree_size = 5;
  std::vector<CandidateQuery> many =
      GenerateCandidates(db_, graph_, et_, options);
  ASSERT_GT(many.size(), 10u);
  VerifyContext ctx{db_, graph_, probes_, et_, many, 42};
  VerifyAll reference;
  FilterVerifier filter;
  VerificationCounters c_ref, c_filter;
  std::vector<bool> expected = reference.Verify(ctx, &c_ref);
  EXPECT_EQ(filter.Verify(ctx, &c_filter), expected);
  // The headline claim: fewer verifications than VERIFYALL.
  EXPECT_LT(c_filter.verifications, c_ref.verifications);
}

TEST_F(FilterVerifierTest, LazyAndExactEvaluateSameNumberOfFilters) {
  // Lazy greedy is an exact accelerated argmax; with deterministic
  // tie-breaking differences the evaluation *sets* may differ slightly,
  // but both must stay correct. We assert correctness and comparable cost.
  CandidateGenOptions options;
  options.max_join_tree_size = 5;
  std::vector<CandidateQuery> many =
      GenerateCandidates(db_, graph_, et_, options);
  VerifyContext ctx{db_, graph_, probes_, et_, many, 42};
  FilterVerifier exact(0.5, false);
  FilterVerifier lazy(0.5, true);
  VerificationCounters c_exact, c_lazy;
  std::vector<bool> v1 = exact.Verify(ctx, &c_exact);
  std::vector<bool> v2 = lazy.Verify(ctx, &c_lazy);
  EXPECT_EQ(v1, v2);
  EXPECT_LE(c_lazy.verifications, 2 * c_exact.verifications + 4);
  EXPECT_LE(c_exact.verifications, 2 * c_lazy.verifications + 4);
}

// ROADMAP 1(b): planning polls the deadline. On a CUST-like ET with
// thousands of candidates (the shape of the CUST workload's heavy tail), an
// expired token stops the universe build at its first poll and FILTER
// spends no verification.
/// A heavy CUST-like ET (thousands of candidates) and an already-expired
/// deadline token.
class FilterVerifierDeadlineTest : public ::testing::Test {
 protected:
  FilterVerifierDeadlineTest()
      : db_(MakeCustLikeDatabase(Config())), graph_(db_), exec_(db_, graph_) {
    EtSource::Options source_options;
    source_options.min_matrix_rows = 8;
    EtSource source(db_, graph_, exec_, 3, source_options);
    et_ = source.SampleMany(EtParams{}, 60, 17)[4];
    expired_.SetTimeout(std::chrono::nanoseconds(0));
  }

  static CustConfig Config() {
    CustConfig config;
    config.scale = 0.2;
    return config;
  }

  Database db_;
  SchemaGraph graph_;
  Executor exec_;
  ExampleTable et_ = ExampleTable::WithColumns(1);
  DeadlineToken expired_;
};

TEST_F(FilterVerifierDeadlineTest, ExpiredDeadlineStopsPlanningOnHeavyCustEt) {
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db_, graph_, et_, {});
  ASSERT_GE(candidates.size(), 2000u);
  ASSERT_TRUE(expired_.Expired());

  FilterUniverse universe =
      BuildFilterUniverse(graph_, et_, candidates, &expired_);
  EXPECT_TRUE(universe.stopped_early);
  EXPECT_EQ(universe.num_filters(), 0);

  ShardExecSet probes(DbView(db_), graph_);
  VerifyContext ctx{db_, graph_, probes, et_, candidates, 42};
  ctx.deadline = &expired_;
  for (bool lazy : {true, false}) {
    FilterVerifier filter(0.1, lazy);
    VerificationCounters counters;
    std::vector<bool> valid = filter.Verify(ctx, &counters);
    EXPECT_TRUE(counters.aborted);
    EXPECT_EQ(counters.verifications, 0);
    EXPECT_EQ(valid.size(), candidates.size());
  }

  DiscoveryOptions options;
  options.deadline = &expired_;
  DiscoveryResult result = DiscoverQueries(db_, et_, options);
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.counters.verifications, 0);
  EXPECT_TRUE(result.queries.empty());
}

TEST_F(FilterVerifierDeadlineTest, ExpiredDeadlineStopsCandidateEnumeration) {
  const std::vector<std::vector<ColumnRef>> columns =
      RetrieveCandidateColumns(db_, et_);
  CandidateGenOptions gen_options;
  EXPECT_GE(
      EnumerateCandidateQueries(db_, graph_, et_, columns, gen_options).size(),
      2000u);
  gen_options.deadline = &expired_;
  EXPECT_TRUE(
      EnumerateCandidateQueries(db_, graph_, et_, columns, gen_options)
          .empty());

  DiscoveryOptions options;
  options.deadline = &expired_;
  // One view and two: the same pipeline must stop at any view count.
  for (size_t num_views : {1, 2}) {
    const std::vector<DbView> views(num_views, DbView(db_));
    DiscoveryResult result = DiscoverQueries(views, et_, options, 0);
    EXPECT_TRUE(result.timed_out) << "views=" << num_views;
    EXPECT_EQ(result.counters.verifications, 0);
    EXPECT_TRUE(result.queries.empty());
  }
}

}  // namespace
}  // namespace qbe
