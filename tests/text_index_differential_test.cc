// Differential test for the interned-token CSR text index (DESIGN.md §10).
//
// Part 1 checks the index against a naive tokenize-and-scan oracle on
// seeded random corpora: MatchPhrase, MatchAllPhrases, TokenRowCount,
// MatchExactIds, and the equivalence of the string API with the id API
// under a shared dictionary (including multi-column ColumnIndex lookups).
//
// Part 2 checks the end-to-end determinism contract around interning:
// verification over a ShardExecSet returns bit-identical validity and
// verification counts with the match cache on or off, and discovery (which
// always runs with it on) returns exactly the valid set.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/candidate_gen.h"
#include "core/discovery.h"
#include "core/filter_verifier.h"
#include "datagen/et_gen.h"
#include "datagen/retailer.h"
#include "datagen/text_gen.h"
#include "exec/executor.h"
#include "exec/sql_render.h"
#include "shard/shard_exec.h"
#include "text/column_index.h"
#include "text/inverted_index.h"
#include "text/token_dict.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace qbe {
namespace {

// --- naive oracle over tokenized cells -------------------------------------

bool OracleCellContains(const std::vector<std::string>& cell_tokens,
                        const std::vector<std::string>& phrase) {
  if (phrase.empty()) return true;
  if (phrase.size() > cell_tokens.size()) return false;
  for (size_t start = 0; start + phrase.size() <= cell_tokens.size();
       ++start) {
    if (std::equal(phrase.begin(), phrase.end(),
                   cell_tokens.begin() + start)) {
      return true;
    }
  }
  return false;
}

std::vector<uint32_t> OracleMatchPhrase(
    const std::vector<std::vector<std::string>>& corpus_tokens,
    const std::vector<std::string>& phrase) {
  std::vector<uint32_t> rows;
  for (uint32_t row = 0; row < corpus_tokens.size(); ++row) {
    if (OracleCellContains(corpus_tokens[row], phrase)) rows.push_back(row);
  }
  return rows;
}

size_t OracleTokenRowCount(
    const std::vector<std::vector<std::string>>& corpus_tokens,
    const std::string& token) {
  size_t n = 0;
  for (const std::vector<std::string>& cell : corpus_tokens) {
    if (std::find(cell.begin(), cell.end(), token) != cell.end()) ++n;
  }
  return n;
}

std::vector<uint32_t> OracleExactMatch(
    const std::vector<std::vector<std::string>>& corpus_tokens,
    const std::vector<std::string>& phrase) {
  std::vector<uint32_t> rows;
  for (uint32_t row = 0; row < corpus_tokens.size(); ++row) {
    if (corpus_tokens[row] == phrase) rows.push_back(row);
  }
  return rows;
}

/// A corpus with deliberate pathologies: empty cells, punctuation-only
/// cells, heavy token repetition, and ordinary generated phrases.
std::vector<std::string> RandomCorpus(Rng& rng, TextGenerator& text,
                                      int rows) {
  std::vector<std::string> cells;
  cells.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    switch (rng.NextBounded(8)) {
      case 0:
        cells.push_back("");
        break;
      case 1:
        cells.push_back("... !!! ,,,");
        break;
      case 2: {
        // Repeat one token to stress position handling ("go go go").
        std::string token = text.NotePhrase(rng, 1, 1);
        std::string cell = token;
        for (uint64_t k = rng.NextBounded(4); k > 0; --k) {
          cell += ' ';
          cell += token;
        }
        cells.push_back(cell);
        break;
      }
      default:
        cells.push_back(text.NotePhrase(rng, 1, 6));
    }
  }
  return cells;
}

/// A probe phrase: usually a token window of a real cell, sometimes random
/// (likely absent), sometimes with a token swapped out.
std::vector<std::string> RandomPhrase(
    Rng& rng, TextGenerator& text,
    const std::vector<std::vector<std::string>>& corpus_tokens) {
  std::vector<std::string> phrase;
  const std::vector<std::string>* src = nullptr;
  for (int attempts = 0; attempts < 20 && src == nullptr; ++attempts) {
    const std::vector<std::string>& cell =
        corpus_tokens[rng.NextBounded(corpus_tokens.size())];
    if (!cell.empty()) src = &cell;
  }
  if (src == nullptr || rng.NextBounded(4) == 0) {
    size_t len = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < len; ++i) {
      phrase.push_back(Tokenize(text.NotePhrase(rng, 1, 1))[0]);
    }
    return phrase;
  }
  size_t start = rng.NextBounded(src->size());
  size_t len = 1 + rng.NextBounded(src->size() - start);
  phrase.assign(src->begin() + start, src->begin() + start + len);
  if (rng.NextBounded(4) == 0) {
    phrase[rng.NextBounded(phrase.size())] = "zzyzx";  // unindexed token
  }
  return phrase;
}

class TextIndexDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(TextIndexDifferentialTest, CsrIndexAgreesWithTokenizeAndScanOracle) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  TextGenerator text;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::string> cells = RandomCorpus(rng, text, 80);
    std::vector<std::vector<std::string>> corpus_tokens;
    for (const std::string& cell : cells) {
      corpus_tokens.push_back(Tokenize(cell));
    }

    TokenDict dict;
    InvertedIndex index;
    index.Build(cells, &dict);
    ASSERT_EQ(&index.dict(), &dict);

    for (uint32_t row = 0; row < cells.size(); ++row) {
      ASSERT_EQ(index.RowTokenCount(row), corpus_tokens[row].size());
    }

    for (int probe = 0; probe < 40; ++probe) {
      std::vector<std::string> phrase =
          RandomPhrase(rng, text, corpus_tokens);
      std::vector<uint32_t> want = OracleMatchPhrase(corpus_tokens, phrase);
      EXPECT_EQ(index.MatchPhrase(phrase), want)
          << "seed " << seed << " trial " << trial;

      // String API ≡ id API.
      std::vector<uint32_t> ids = dict.IdsOf(phrase);
      EXPECT_EQ(index.MatchPhraseIds(ids), want);
      EXPECT_EQ(index.AnyMatchIds(ids), !want.empty());

      std::vector<uint32_t> exact;
      index.MatchExactIdsInto(ids, &exact);
      EXPECT_EQ(exact, OracleExactMatch(corpus_tokens, phrase));

      for (const std::string& token : phrase) {
        EXPECT_EQ(index.TokenRowCount(token),
                  OracleTokenRowCount(corpus_tokens, token));
      }

      // Conjunction against a second independent phrase.
      std::vector<std::string> other =
          RandomPhrase(rng, text, corpus_tokens);
      std::vector<uint32_t> both;
      std::vector<uint32_t> other_rows =
          OracleMatchPhrase(corpus_tokens, other);
      std::set_intersection(want.begin(), want.end(), other_rows.begin(),
                            other_rows.end(), std::back_inserter(both));
      EXPECT_EQ(index.MatchAllPhrases({phrase, other}), both);
    }

    // Empty phrase and empty-cell exact match.
    EXPECT_EQ(index.MatchPhrase({}).size(), cells.size());
    std::vector<uint32_t> empty_exact;
    index.MatchExactIdsInto({}, &empty_exact);
    EXPECT_EQ(empty_exact, OracleExactMatch(corpus_tokens, {}));
  }
}

TEST_P(TextIndexDifferentialTest, SharedDictColumnIndexAgreesWithOracle) {
  uint64_t seed = GetParam();
  Rng rng(seed * 977 + 5);
  TextGenerator text;
  constexpr int kColumns = 4;

  std::vector<std::vector<std::string>> columns(kColumns);
  std::vector<std::vector<std::vector<std::string>>> column_tokens(kColumns);
  TokenDict dict;
  std::vector<InvertedIndex> indexes(kColumns);
  ColumnIndex ci;
  for (int c = 0; c < kColumns; ++c) {
    columns[c] = RandomCorpus(rng, text, 40);
    for (const std::string& cell : columns[c]) {
      column_tokens[c].push_back(Tokenize(cell));
    }
    indexes[c].Build(columns[c], &dict);
    ci.RegisterColumn(c, &indexes[c]);
  }

  for (int probe = 0; probe < 60; ++probe) {
    int src_col = static_cast<int>(rng.NextBounded(kColumns));
    std::vector<std::string> phrase =
        RandomPhrase(rng, text, column_tokens[src_col]);
    std::vector<int> want;
    for (int c = 0; c < kColumns; ++c) {
      if (!OracleMatchPhrase(column_tokens[c], phrase).empty()) {
        want.push_back(c);
      }
    }
    EXPECT_EQ(ci.ColumnsContaining(phrase), want) << "seed " << seed;
    EXPECT_EQ(ci.ColumnsContainingIds(dict.IdsOf(phrase)), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextIndexDifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

// --- end-to-end bit-identity around interning ------------------------------

TEST(TextIndexEndToEndTest, DiscoveryBitIdenticalWithAndWithoutMatchCache) {
  Database db = MakeScaledRetailerDatabase(30, 30, 12, 12, 120, 120, 50, 7);
  SchemaGraph graph(db);
  Executor exec(db, graph);
  EtSource::Options source_options;
  source_options.num_matrices = 4;
  source_options.min_text_cols = 3;
  source_options.min_matrix_rows = 6;
  EtSource source(db, graph, exec, 7, source_options);
  EtParams params;
  params.m = 3;
  params.n = 3;
  params.s = 0.3;
  params.v = 1;

  int64_t total_verifications = 0;
  int64_t total_cache_lookups = 0;
  for (const ExampleTable& et : source.SampleMany(params, 6, 4242)) {
    const std::vector<CandidateQuery> candidates =
        GenerateCandidates(db, graph, et, CandidateGenOptions{});
    const EtTokenIds et_ids(et, DbView(db));
    // Discovery's own verifier (FILTER) over one view, with the match cache
    // off and on.
    auto verify = [&](bool use_match_cache, VerificationCounters* counters) {
      ShardExecSet probes(DbView(db), graph,
                          {.use_match_cache = use_match_cache});
      VerifyContext ctx{db,      graph,   probes, et, candidates,
                        nullptr, nullptr, &et_ids};
      std::vector<bool> valid = FilterVerifier().Verify(ctx, counters);
      probes.AddCacheCounters(counters);
      return valid;
    };
    VerificationCounters reference;
    const std::vector<bool> reference_valid = verify(false, &reference);
    total_verifications += reference.verifications;
    EXPECT_EQ(reference.match_cache_lookups, 0);

    // The match cache is an execution-cost knob only: the validity vector
    // and the verification counters are bit-identical to the uncached
    // reference.
    VerificationCounters cached;
    EXPECT_EQ(verify(true, &cached), reference_valid);
    EXPECT_EQ(cached.verifications, reference.verifications);
    EXPECT_EQ(cached.estimated_cost, reference.estimated_cost);
    total_cache_lookups += cached.match_cache_lookups;

    // Discovery returns the reference's valid set, every query matching
    // every ET row, with the reference's counts.
    DiscoveryResult result = DiscoverQueries(db, et);
    ASSERT_TRUE(result.ok()) << result.error;
    std::vector<std::string> labels;
    for (int c = 0; c < et.num_columns(); ++c) {
      labels.push_back(et.column_name(c));
    }
    std::vector<std::string> want;
    for (size_t q = 0; q < candidates.size(); ++q) {
      if (!reference_valid[q]) continue;
      want.push_back(RenderProjectJoinSql(db, graph, candidates[q].tree,
                                          candidates[q].projection, labels));
    }
    std::vector<std::string> got;
    for (const DiscoveredQuery& q : result.queries) {
      got.push_back(q.sql);
      EXPECT_EQ(q.matched_rows, et.num_rows());
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
    EXPECT_EQ(result.counters.verifications, reference.verifications);
    EXPECT_EQ(result.counters.estimated_cost, reference.estimated_cost);
  }
  // Guard against a degenerate instance set silently passing.
  EXPECT_GT(total_verifications, 0);
  EXPECT_GT(total_cache_lookups, 0);
}

}  // namespace
}  // namespace qbe
