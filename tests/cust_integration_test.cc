// Integration sweep on the CUST-like dataset: all verification algorithms
// must agree on ETs drawn from its matrices (the retailer-based property
// tests cover a different schema shape — CUST adds wide fact tables,
// standalone aux relations and status-style low-cardinality columns).

#include <gtest/gtest.h>

#include <utility>

#include "core/candidate_gen.h"
#include "core/filter_verifier.h"
#include "core/simple_prune.h"
#include "core/verify_all.h"
#include "core/weave.h"
#include "datagen/cust_like.h"
#include "datagen/et_gen.h"
#include "exec/executor.h"

namespace qbe {
namespace {

class CustIntegrationTest : public ::testing::Test {
 protected:
  CustIntegrationTest() {
    CustConfig config;
    config.scale = 0.08;
    db_ = std::make_unique<Database>(MakeCustLikeDatabase(config));
    graph_ = std::make_unique<SchemaGraph>(*db_);
    exec_ = std::make_unique<Executor>(*db_, *graph_);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SchemaGraph> graph_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(CustIntegrationTest, MatricesExist) {
  EtSource::Options options;
  options.min_matrix_rows = 8;
  EtSource source(*db_, *graph_, *exec_, 3, options);
  EXPECT_GT(source.num_matrices(), 0);
}

TEST_F(CustIntegrationTest, AllAlgorithmsAgreeOnCustWorkload) {
  EtSource::Options source_options;
  source_options.min_matrix_rows = 8;
  EtSource source(*db_, *graph_, *exec_, 3, source_options);
  ASSERT_GT(source.num_matrices(), 0);
  EtParams params;
  for (const ExampleTable& et : source.SampleMany(params, 6, 17)) {
    std::vector<CandidateQuery> candidates =
        GenerateCandidates(*db_, *graph_, et, {});
    if (candidates.empty()) continue;
    ShardExecSet probes(DbView(*db_), *graph_);
    VerifyContext ctx{*db_, *graph_, probes, et, candidates};
    VerifyAll verify_all(RowOrder::kRandom, 11);
    VerificationCounters c0;
    std::vector<bool> reference = verify_all.Verify(ctx, &c0);

    SimplePrune simple_prune;
    FilterVerifier filter_lazy;  // default: lazy greedy
    FilterVerifier filter_exact({.lazy_greedy = false});
    JoinTreeWeave weave;
    std::pair<const char*, CandidateVerifier*> algos[] = {
        {"SimplePrune", &simple_prune},
        {"Filter", &filter_lazy},
        {"Filter(exact)", &filter_exact},
        {"Weave", &weave}};
    for (auto [name, algo] : algos) {
      VerificationCounters counters;
      EXPECT_EQ(algo->Verify(ctx, &counters), reference) << name;
      EXPECT_GT(counters.verifications, 0);
    }
  }
}

TEST_F(CustIntegrationTest, AuxRelationsStayOutOfJoins) {
  // Standalone aux relations have no FK edges: any candidate containing an
  // aux relation must be a single-vertex query.
  EtSource::Options source_options;
  source_options.min_matrix_rows = 8;
  EtSource source(*db_, *graph_, *exec_, 3, source_options);
  EtParams params;
  for (const ExampleTable& et : source.SampleMany(params, 4, 23)) {
    for (const CandidateQuery& q :
         GenerateCandidates(*db_, *graph_, et, {})) {
      bool has_aux = false;
      q.tree.verts.ForEach([&](int v) {
        has_aux |= db_->relation(v).name().substr(0, 4) == "aux_";
      });
      if (has_aux) {
        EXPECT_EQ(q.tree.NumVertices(), 1);
      }
    }
  }
}

}  // namespace
}  // namespace qbe
