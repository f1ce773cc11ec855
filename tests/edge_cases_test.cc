// Edge-case behaviours pinned down as tests: tokenizer byte handling,
// empty-cell indexing, database move semantics, degenerate candidate
// inputs, and counter accounting invariants.

#include <gtest/gtest.h>

#include "core/candidate_gen.h"
#include "core/filter_verifier.h"
#include "core/verify_all.h"
#include "datagen/retailer.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"

namespace qbe {
namespace {

TEST(TokenizerEdgeTest, NonAsciiBytesAreSeparators) {
  // The tokenizer is ASCII-only by contract: multi-byte UTF-8 sequences
  // act as separators, so accented names degrade to their ASCII runs
  // rather than corrupting tokens.
  std::vector<std::string> tokens = Tokenize("caf\xc3\xa9 noir");
  EXPECT_EQ(tokens, (std::vector<std::string>{"caf", "noir"}));
}

TEST(TokenizerEdgeTest, LongRunsAndMixedAlnum) {
  EXPECT_EQ(Tokenize("x1y2z3"), (std::vector<std::string>{"x1y2z3"}));
  EXPECT_EQ(Tokenize("a-b_c.d"),
            (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(InvertedIndexEdgeTest, EmptyCellsIndexedAsNoTokens) {
  InvertedIndex index;
  index.Build({"", "hello", ""});
  EXPECT_EQ(index.num_rows(), 3u);
  EXPECT_EQ(index.MatchPhrase({"hello"}), (std::vector<uint32_t>{1}));
  // Empty phrase matches all rows including empty cells.
  EXPECT_EQ(index.MatchPhrase({}).size(), 3u);
}

TEST(InvertedIndexEdgeTest, BuildIsIdempotent) {
  InvertedIndex index;
  index.Build({"a b", "c"});
  index.Build({"x"});
  EXPECT_EQ(index.num_rows(), 1u);
  EXPECT_TRUE(index.MatchPhrase({"a"}).empty());
  EXPECT_EQ(index.MatchPhrase({"x"}).size(), 1u);
}

TEST(DatabaseEdgeTest, MoveSemanticsPreserveIndexes) {
  Database db = MakeRetailerDatabase();
  Database moved = std::move(db);
  EXPECT_EQ(moved.num_relations(), 7);
  int customer = moved.RelationIdByName("Customer");
  EXPECT_EQ(moved.PkLookup(customer, 0, 1), 0);
  EXPECT_EQ(moved.column_index().ColumnsContaining({"mike"}).size(), 2u);
}

TEST(CandidateGenEdgeTest, SingleColumnSingleRow) {
  Database db = MakeRetailerDatabase();
  SchemaGraph graph(db);
  ExampleTable et({"A"});
  et.AddRow({"Evernote"});
  auto candidates = GenerateCandidates(db, graph, et, {});
  // Evernote is never referenced by Sales/Owner rows? It is (app 2 sold
  // and owned). Candidates include the App singleton at minimum.
  ASSERT_FALSE(candidates.empty());
  for (const CandidateQuery& q : candidates) {
    EXPECT_TRUE(IsMinimalCandidate(q, graph));
  }
}

TEST(CandidateGenEdgeTest, MaxJoinTreeSizeOne) {
  Database db = MakeRetailerDatabase();
  SchemaGraph graph(db);
  ExampleTable et({"A", "B"});
  et.AddRow({"Office", "crash"});
  CandidateGenOptions options;
  options.max_join_tree_size = 1;
  for (const CandidateQuery& q : GenerateCandidates(db, graph, et, options)) {
    EXPECT_EQ(q.tree.NumVertices(), 1);
  }
}

TEST(CounterEdgeTest, EstimatedCostIsSumOfTreeSizes) {
  Database db = MakeRetailerDatabase();
  SchemaGraph graph(db);
  ShardExecSet probes(DbView(db), graph);
  ExampleTable et = MakeFigure2ExampleTable();
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db, graph, et, {});
  VerifyContext ctx{db, graph, probes, et, candidates, 1};
  VerifyAll verify_all(RowOrder::kGiven);
  VerificationCounters counters;
  verify_all.Verify(ctx, &counters);
  // All Figure 2 candidates have 4-relation trees, so the total estimated
  // cost must be 4 × #verifications.
  EXPECT_EQ(counters.estimated_cost, 4 * counters.verifications);
}

TEST(FilterVerifierEdgeTest, AllCandidatesInvalid) {
  Database db = MakeRetailerDatabase();
  SchemaGraph graph(db);
  ShardExecSet probes(DbView(db), graph);
  // (Mike, Evernote): nobody named Mike bought/owns Evernote.
  ExampleTable et({"A", "B"});
  et.AddRow({"Mike", "Evernote"});
  et.AddRow({"Mary", "Office"});
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db, graph, et, {});
  if (candidates.empty()) GTEST_SKIP();
  VerifyContext ctx{db, graph, probes, et, candidates, 1};
  FilterVerifier filter;
  VerificationCounters counters;
  std::vector<bool> valid = filter.Verify(ctx, &counters);
  VerifyAll reference;
  VerificationCounters c2;
  EXPECT_EQ(valid, reference.Verify(ctx, &c2));
}

TEST(FilterVerifierEdgeTest, DeterministicAcrossRuns) {
  Database db = MakeRetailerDatabase();
  SchemaGraph graph(db);
  ShardExecSet probes(DbView(db), graph);
  ExampleTable et = MakeFigure2ExampleTable();
  CandidateGenOptions gen;
  gen.max_join_tree_size = 5;
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db, graph, et, gen);
  VerifyContext ctx{db, graph, probes, et, candidates, 1};
  FilterVerifier filter;
  VerificationCounters c1, c2;
  std::vector<bool> v1 = filter.Verify(ctx, &c1);
  std::vector<bool> v2 = filter.Verify(ctx, &c2);
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(c1.verifications, c2.verifications);
  EXPECT_EQ(c1.estimated_cost, c2.estimated_cost);
}

}  // namespace
}  // namespace qbe
