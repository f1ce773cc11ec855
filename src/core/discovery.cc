#include "core/discovery.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "core/filter_verifier.h"
#include "core/simple_prune.h"
#include "core/verify_all.h"
#include "core/weave.h"
#include "exec/sql_render.h"
#include "obs/trace.h"
#include "schema/schema_graph.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace qbe {
namespace {

/// RankScore's integer operands for one request. A cell's match count
/// depends only on (projection column, ET row, ET column) and a live-row
/// count only on the relation, so each is counted once per request
/// however many valid queries share it. Match and live-row counts are
/// integers summed over the views (exact: the views partition the rows).
class RankCounts {
 public:
  RankCounts(std::span<const DbView> views,
             const std::vector<EtTokenIds>& et_ids, const ExampleTable& et)
      : views_(views),
        et_ids_(et_ids),
        et_(et),
        live_rows_(views[0].base().num_relations(), kUncounted) {}

  uint64_t LiveRows(int rel) {
    uint64_t& rows = live_rows_[rel];
    if (rows == kUncounted) {
      rows = 0;
      for (const DbView& view : views_) rows += view.LiveRows(rel);
    }
    return rows;
  }

  uint64_t Matches(const ColumnRef& col, int row, int et_col) {
    std::vector<uint64_t>& cells =
        matches_[uint64_t{static_cast<uint32_t>(col.rel)} << 32 |
                 static_cast<uint32_t>(col.col)];
    if (cells.empty()) {
      cells.assign(static_cast<size_t>(et_.num_rows()) * et_.num_columns(),
                   kUncounted);
    }
    uint64_t& matches = cells[static_cast<size_t>(row) * et_.num_columns() +
                              et_col];
    if (matches == kUncounted) {
      matches = 0;
      for (size_t v = 0; v < views_.size(); ++v) {
        matches += views_[v].MatchCount(col, et_ids_[v].CellIds(row, et_col));
      }
    }
    return matches;
  }

 private:
  static constexpr uint64_t kUncounted = ~uint64_t{0};

  std::span<const DbView> views_;
  const std::vector<EtTokenIds>& et_ids_;
  const ExampleTable& et_;
  std::vector<uint64_t> live_rows_;  // by relation
  /// By projection column (rel << 32 | col): one count per ET cell,
  /// row-major.
  std::unordered_map<uint64_t, std::vector<uint64_t>> matches_;
};

/// Ranking score (§8 future work): prefer fewer joins (simpler
/// explanations) and more selective projection columns (mappings where the
/// ET values pin down few base rows are likelier to reflect user intent).
/// The counts are the same integers for every partition of the data, so
/// every partition feeds the same operands to the same double arithmetic.
double RankScore(RankCounts& counts, const ExampleTable& et,
                 const CandidateQuery& query) {
  double selectivity_sum = 0.0;
  int cells = 0;
  for (int c = 0; c < et.num_columns(); ++c) {
    const ColumnRef& col = query.projection[c];
    const uint64_t live_rows = counts.LiveRows(col.rel);
    for (int r = 0; r < et.num_rows(); ++r) {
      if (et.cell(r, c).IsEmpty()) continue;
      const uint64_t matches = counts.Matches(col, r, c);
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

/// True once `options.deadline` has expired.
bool DeadlineExpired(const DiscoveryOptions& options) {
  return options.deadline != nullptr && options.deadline->Expired();
}

/// Voids `result` as a deadline timeout and returns it.
DiscoveryResult& MarkTimedOut(DiscoveryResult& result) {
  result.timed_out = true;
  result.error = "deadline exceeded before verification finished";
  result.queries.clear();
  return result;
}

/// The trace span that covers verification under `options`.
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

/// The verifier `options.algorithm` selects.
std::unique_ptr<CandidateVerifier> MakeVerifier(
    const DiscoveryOptions& options) {
  switch (options.algorithm) {
    case Algorithm::kVerifyAll:
      return std::make_unique<VerifyAll>();
    case Algorithm::kSimplePrune:
      return std::make_unique<SimplePrune>();
    case Algorithm::kFilter:
      return std::make_unique<FilterVerifier>();
    case Algorithm::kFilterExact:
      // Exact greedy argmax (the lazy accelerated scan is the default).
      return std::make_unique<FilterVerifier>(
          FilterVerifier::Options{.lazy_greedy = false});
    case Algorithm::kWeave:
      return std::make_unique<JoinTreeWeave>();
  }
  return nullptr;
}

}  // namespace

DiscoveryResult DiscoverQueries(const Database& db, const ExampleTable& et,
                                const DiscoveryOptions& options) {
  return DiscoverQueries(DbView(db), et, options);
}

DiscoveryResult DiscoverQueries(const DbView& view, const ExampleTable& et,
                                const DiscoveryOptions& options) {
  return DiscoverQueries(std::span<const DbView>(&view, 1), et, options);
}

DiscoveryResult DiscoverQueries(std::span<const DbView> views,
                                const ExampleTable& et,
                                const DiscoveryOptions& options,
                                ShardStats* stats) {
  QBE_CHECK_MSG(!views.empty(), "discovery needs at least one view");
  const Database& db = views[0].base();
  DiscoveryResult result;
  if (!et.IsWellFormed()) {
    result.error =
        "example table must be non-empty with no fully-empty row or column";
    return result;
  }
  if (options.max_join_tree_size < 1) {
    result.error = "max join tree size must be at least 1, got " +
                   std::to_string(options.max_join_tree_size);
    return result;
  }
  if (DeadlineExpired(options)) return MarkTimedOut(result);

  // The schema (relations, FK edges) is immutable across epochs and shared
  // by every view, so the graph and its join-tree catalogs come from the
  // first view's base; only row-level reads go through the views.
  const SchemaGraph& graph = db.schema_graph();

  TraceContext* trace = options.trace;
  if (trace != nullptr) {
    for (const DbView& view : views) {
      if (view.delta() == nullptr) continue;
      trace->Count(TraceCounter::kDeltaRows,
                   static_cast<int64_t>(view.delta()->appended_total));
      trace->Count(TraceCounter::kDeltaTombstones,
                   static_cast<int64_t>(view.delta()->tombstones_total));
    }
  }

  Stopwatch gen_timer;
  SpanRef gen_span =
      trace == nullptr ? kNullSpan : trace->OpenSpan(SpanKind::kCandidateGen);
  CandidateGenOptions gen_options;
  gen_options.max_join_tree_size = options.max_join_tree_size;
  // One candidate past the cap tells a truncated set from a complete one.
  gen_options.max_candidates =
      options.max_candidates + (options.max_candidates < SIZE_MAX ? 1 : 0);
  gen_options.deadline = options.deadline;
  std::vector<std::vector<ColumnRef>> candidate_columns =
      options.min_row_support >= 0
          ? RetrieveCandidateColumnsRelaxed(views, et, options.min_row_support)
          : RetrieveCandidateColumns(views, et);
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
  if (candidates.size() > options.max_candidates) {
    result.error = "ET too broad: more than " +
                   std::to_string(options.max_candidates) + " candidates";
    return result;
  }
  if (candidates.empty()) return result;

  // Resolve the ET's tokens against each view's dictionary once (base
  // dictionary plus overlay tokens). With one view every predicate carries
  // these id vectors; with several there is no global id space, so
  // predicates stay token-level and each view's executor resolves them on
  // entry. Ranking reads every view's ids.
  SpanRef resolve_span =
      trace == nullptr ? kNullSpan
                       : trace->OpenSpan(SpanKind::kEtTokenResolve);
  std::vector<EtTokenIds> et_ids;
  et_ids.reserve(views.size());
  for (const DbView& view : views) et_ids.emplace_back(et, view);
  if (trace != nullptr) trace->CloseSpan(resolve_span);

  ShardExecSet probes(views, graph, {.use_match_cache = true});
  VerifyContext ctx{db,
                    graph,
                    probes,
                    et,
                    candidates,
                    options.cache,
                    options.deadline,
                    views.size() == 1 ? &et_ids[0] : nullptr,
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
  // Cache traffic is diagnostics: with several views it is counted per
  // view and legitimately differs from one view's, unlike the verification
  // counters above.
  probes.AddCacheCounters(&result.counters);
  // The request's shared-cache traffic reaches the cache's totals in one
  // step, not one shared update per lookup.
  if (options.cache != nullptr) {
    options.cache->AddTraffic(result.counters.eval_cache_hits,
                              result.counters.eval_cache_lookups);
  }
  if (trace != nullptr) {
    trace->CloseSpan(verify_span);
    trace->Count(TraceCounter::kQueriesVerified,
                 result.counters.verifications);
    trace->Count(TraceCounter::kEvalCacheHits,
                 result.counters.eval_cache_hits);
    trace->Count(TraceCounter::kEvalCacheLookups,
                 result.counters.eval_cache_lookups);
    trace->Count(TraceCounter::kMatchCacheHits,
                 result.counters.match_cache_hits);
    trace->Count(TraceCounter::kMatchCacheLookups,
                 result.counters.match_cache_lookups);
    trace->Count(TraceCounter::kSubtreeMemoHits,
                 result.counters.subtree_memo_hits);
    trace->Count(TraceCounter::kSubtreeMemoLookups,
                 result.counters.subtree_memo_lookups);
  }
  if (stats != nullptr) *stats = probes.Stats();

  // An aborted run's validity vector is fabricated from the abort point on;
  // surface the timeout instead of a wrong answer.
  if (result.counters.aborted) return MarkTimedOut(result);

  ScopedSpan rank_span(trace, SpanKind::kRank);
  std::vector<std::string> labels;
  for (int c = 0; c < et.num_columns(); ++c)
    labels.push_back(et.column_name(c));
  RankCounts rank_counts(views, et_ids, et);
  for (size_t q = 0; q < candidates.size(); ++q) {
    if (!keep[q]) continue;
    DiscoveredQuery out;
    out.query = candidates[q];
    out.sql = RenderProjectJoinSql(db, graph, candidates[q].tree,
                                   candidates[q].projection, labels);
    out.matched_rows = matched[q];
    out.score = options.rank_results
                    ? RankScore(rank_counts, et, candidates[q])
                    : 0.0;
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
