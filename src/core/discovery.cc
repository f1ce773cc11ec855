#include "core/discovery.h"

#include <algorithm>
#include <memory>

#include "core/filter_verifier.h"
#include "core/simple_prune.h"
#include "core/verify_all.h"
#include "core/weave.h"
#include "exec/executor.h"
#include "exec/sql_render.h"
#include "obs/trace.h"
#include "schema/schema_graph.h"
#include "util/stopwatch.h"

namespace qbe {
namespace {

/// Ranking score (§8 future work): prefer fewer joins (simpler
/// explanations) and more selective projection columns (mappings where the
/// ET values pin down few base rows are likelier to reflect user intent).
double RankScore(const DbView& view, const ExampleTable& et,
                 const EtTokenIds& et_ids, const CandidateQuery& query) {
  double selectivity_sum = 0.0;
  int cells = 0;
  for (int c = 0; c < et.num_columns(); ++c) {
    const ColumnRef& col = query.projection[c];
    const uint32_t live_rows = view.LiveRows(col.rel);
    for (int r = 0; r < et.num_rows(); ++r) {
      if (et.cell(r, c).IsEmpty()) continue;
      size_t matches = view.MatchCount(col, et_ids.CellIds(r, c));
      selectivity_sum += live_rows == 0
                             ? 0.0
                             : static_cast<double>(matches) /
                                   static_cast<double>(live_rows);
      ++cells;
    }
  }
  double avg_selectivity = cells == 0 ? 0.0 : selectivity_sum / cells;
  return 1.0 / query.tree.NumVertices() + 0.5 * (1.0 - avg_selectivity);
}

}  // namespace

bool DeadlineExpired(const DiscoveryOptions& options) {
  return options.deadline != nullptr && options.deadline->Expired();
}

DiscoveryResult& MarkTimedOut(DiscoveryResult& result) {
  result.timed_out = true;
  result.error = "deadline exceeded before verification finished";
  result.queries.clear();
  return result;
}

SpanKind VerifySpanKind(const DiscoveryOptions& options) {
  if (options.min_row_support >= 0) return SpanKind::kRelaxedVerify;
  switch (options.algorithm) {
    case Algorithm::kVerifyAll: return SpanKind::kVerifyAll;
    case Algorithm::kSimplePrune: return SpanKind::kSimplePrune;
    case Algorithm::kFilter: return SpanKind::kFilter;
    case Algorithm::kFilterExact: return SpanKind::kFilterExact;
    case Algorithm::kWeave: return SpanKind::kWeave;
  }
  return SpanKind::kVerifyAll;
}

std::unique_ptr<CandidateVerifier> MakeVerifier(
    const DiscoveryOptions& options) {
  switch (options.algorithm) {
    case Algorithm::kVerifyAll:
      return std::make_unique<VerifyAll>(options.row_order);
    case Algorithm::kSimplePrune:
      return std::make_unique<SimplePrune>(options.row_order);
    case Algorithm::kFilter: {
      FilterVerifier::Options fo;
      fo.failure_prior = options.failure_prior;
      return std::make_unique<FilterVerifier>(fo);
    }
    case Algorithm::kFilterExact:
      // Exact greedy argmax (the lazy accelerated scan is the default).
      return std::make_unique<FilterVerifier>(options.failure_prior, false);
    case Algorithm::kWeave:
      return std::make_unique<JoinTreeWeave>();
  }
  return nullptr;
}

DiscoveryResult DiscoverQueries(const Database& db, const ExampleTable& et,
                                const DiscoveryOptions& options) {
  return DiscoverQueries(DbView(db), et, options, 0);
}

DiscoveryResult DiscoverQueries(const DbView& view, const ExampleTable& et,
                                const DiscoveryOptions& options,
                                uint64_t data_epoch) {
  const Database& db = view.base();
  DiscoveryResult result;
  if (!et.IsWellFormed()) {
    result.error =
        "example table must be non-empty with no fully-empty row or column";
    return result;
  }
  if (DeadlineExpired(options)) return MarkTimedOut(result);

  // The schema (relations, FK edges) is immutable across epochs, so the
  // graph and join-tree enumeration are overlay-independent; only row-level
  // reads go through the view.
  SchemaGraph graph(db);
  Executor exec(view, graph);

  TraceContext* trace = options.trace;
  if (trace != nullptr && view.delta() != nullptr) {
    trace->Count(TraceCounter::kDeltaRows,
                 static_cast<int64_t>(view.delta()->appended_total));
    trace->Count(TraceCounter::kDeltaTombstones,
                 static_cast<int64_t>(view.delta()->tombstones_total));
  }

  Stopwatch gen_timer;
  SpanRef gen_span =
      trace == nullptr ? kNullSpan : trace->OpenSpan(SpanKind::kCandidateGen);
  CandidateGenOptions gen_options;
  gen_options.max_join_tree_size = options.max_join_tree_size;
  gen_options.max_candidates = options.max_candidates;
  gen_options.deadline = options.deadline;
  std::vector<std::vector<ColumnRef>> candidate_columns =
      options.min_row_support >= 0
          ? RetrieveCandidateColumnsRelaxed(view, et, options.min_row_support)
          : RetrieveCandidateColumns(view, et);
  for (const auto& cols : candidate_columns) {
    result.candidate_columns_per_et_column.push_back(cols.size());
  }
  std::vector<CandidateQuery> candidates = EnumerateCandidateQueries(
      db, graph, et, candidate_columns, gen_options);
  result.candidate_gen_seconds = gen_timer.ElapsedSeconds();
  result.num_candidates = candidates.size();
  if (trace != nullptr) {
    trace->CloseSpan(gen_span);
    trace->Count(TraceCounter::kCandidatesGenerated,
                 static_cast<int64_t>(candidates.size()));
  }
  // Checked before the empty case: enumeration stops early on expiry.
  if (DeadlineExpired(options)) return MarkTimedOut(result);
  if (candidates.empty()) return result;

  // Resolve the ET's tokens against the version's dictionary once (base
  // dictionary plus overlay tokens); every predicate this request builds
  // carries id vectors from here on.
  SpanRef resolve_span =
      trace == nullptr ? kNullSpan
                       : trace->OpenSpan(SpanKind::kEtTokenResolve);
  EtTokenIds et_ids(et, view);
  if (trace != nullptr) trace->CloseSpan(resolve_span);
  MatchCache match_cache;
  VerifyContext ctx{db,           graph,         exec,
                    et,           candidates,    options.seed,
                    options.cache, options.deadline,
                    &et_ids,      options.subtree_memo,
                    options.use_match_cache ? &match_cache : nullptr,
                    data_epoch,   view.delta(),
                    trace};

  // Per-algorithm verification span; every evaluation runs on this thread
  // and nests under it.
  SpanRef verify_span =
      trace == nullptr ? kNullSpan : trace->OpenSpan(VerifySpanKind(options));

  std::vector<int> matched(candidates.size(), 0);
  std::vector<bool> keep(candidates.size(), false);
  if (options.min_row_support >= 0) {
    // Relaxed validity: count matching rows per candidate (no early
    // elimination — every row's outcome matters) and keep those meeting
    // the support threshold.
    int need = std::min(options.min_row_support, et.num_rows());
    EvalEngine engine(ctx, &result.counters);
    Stopwatch timer;
    for (size_t q = 0; q < candidates.size(); ++q) {
      for (int r = 0; r < et.num_rows(); ++r) {
        // Early exit only when the threshold is provably unreachable.
        int remaining = et.num_rows() - r;
        if (matched[q] + remaining < need) break;
        if (engine.EvaluateCandidateRow(static_cast<int>(q), r)) {
          matched[q] += 1;
        }
      }
      keep[q] = matched[q] >= need;
    }
    result.counters.elapsed_seconds += timer.ElapsedSeconds();
  } else {
    std::unique_ptr<CandidateVerifier> verifier = MakeVerifier(options);
    std::vector<bool> valid = verifier->Verify(ctx, &result.counters);
    for (size_t q = 0; q < candidates.size(); ++q) {
      keep[q] = valid[q];
      matched[q] = valid[q] ? et.num_rows() : 0;
    }
  }
  result.counters.match_cache_hits +=
      static_cast<int64_t>(match_cache.hits());
  result.counters.match_cache_lookups +=
      static_cast<int64_t>(match_cache.lookups());
  if (trace != nullptr) {
    trace->CloseSpan(verify_span);
    trace->Count(TraceCounter::kQueriesVerified,
                 result.counters.verifications);
    trace->Count(TraceCounter::kMatchCacheHits,
                 result.counters.match_cache_hits);
    trace->Count(TraceCounter::kMatchCacheLookups,
                 result.counters.match_cache_lookups);
    trace->Count(TraceCounter::kSubtreeMemoHits,
                 result.counters.subtree_memo_hits);
    trace->Count(TraceCounter::kSubtreeMemoLookups,
                 result.counters.subtree_memo_lookups);
  }

  // An aborted run's validity vector is fabricated from the abort point on;
  // surface the timeout instead of a wrong answer.
  if (result.counters.aborted) return MarkTimedOut(result);

  ScopedSpan rank_span(trace, SpanKind::kRank);
  std::vector<std::string> labels;
  for (int c = 0; c < et.num_columns(); ++c)
    labels.push_back(et.column_name(c));
  for (size_t q = 0; q < candidates.size(); ++q) {
    if (!keep[q]) continue;
    DiscoveredQuery out;
    out.query = candidates[q];
    out.sql = RenderProjectJoinSql(db, graph, candidates[q].tree,
                                   candidates[q].projection, labels);
    out.matched_rows = matched[q];
    out.score =
        options.rank_results ? RankScore(view, et, et_ids, candidates[q]) : 0.0;
    result.queries.push_back(std::move(out));
  }
  if (options.rank_results) {
    std::stable_sort(result.queries.begin(), result.queries.end(),
                     [](const DiscoveredQuery& a, const DiscoveredQuery& b) {
                       return a.score > b.score;
                     });
  }
  if (trace != nullptr) {
    trace->Count(TraceCounter::kValidQueries,
                 static_cast<int64_t>(result.queries.size()));
  }
  return result;
}

}  // namespace qbe
