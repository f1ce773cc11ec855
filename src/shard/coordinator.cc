#include "shard/coordinator.h"

#include <algorithm>
#include <iterator>

#include "core/candidate_gen.h"
#include "exec/sql_render.h"
#include "kernels/kernels.h"
#include "obs/trace.h"
#include "schema/schema_graph.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace qbe {
namespace {

/// Union across shards of the "columns containing ET cell (r, c)" sets.
/// Containment is a per-row property and the shards partition the rows, so
/// this union equals the unsharded per-cell set exactly; tokens are
/// resolved against each shard's own dictionary (a token absent from a
/// shard matches nothing there, which is what the global answer needs).
void MergedCellColumnsInto(const std::vector<DbView>& views,
                           const ExampleTable& et, int r, int c,
                           std::vector<uint32_t>* ids,
                           std::vector<int>* shard_matches,
                           std::vector<int>* union_scratch,
                           std::vector<int>* merged) {
  merged->clear();
  for (const DbView& view : views) {
    view.IdsOfInto(et.CellTokens(r, c), ids);
    view.ColumnsContainingIdsInto(*ids, shard_matches);
    if (shard_matches->empty()) continue;
    if (merged->empty()) {
      merged->swap(*shard_matches);
      continue;
    }
    union_scratch->clear();
    std::set_union(merged->begin(), merged->end(), shard_matches->begin(),
                   shard_matches->end(), std::back_inserter(*union_scratch));
    merged->swap(*union_scratch);
  }
}

/// The global live-row count of every relation summed over the shard
/// partition; used by ranking (must divide by the unsharded denominator).
uint64_t TotalLiveRows(const std::vector<DbView>& views, int rel) {
  uint64_t total = 0;
  for (const DbView& view : views) total += view.LiveRows(rel);
  return total;
}

/// Sharded replica of discovery.cc's RankScore: integer match and live-row
/// counts are summed across shards first (exact — rows partition), then
/// the identical double arithmetic runs on the identical operands, so
/// scores are bit-identical to the unsharded ranking.
double RankScoreSharded(const std::vector<DbView>& views,
                        const std::vector<EtTokenIds>& shard_et_ids,
                        const ExampleTable& et, const CandidateQuery& query) {
  double selectivity_sum = 0.0;
  int cells = 0;
  for (int c = 0; c < et.num_columns(); ++c) {
    const ColumnRef& col = query.projection[c];
    const uint64_t live_rows = TotalLiveRows(views, col.rel);
    for (int r = 0; r < et.num_rows(); ++r) {
      if (et.cell(r, c).IsEmpty()) continue;
      size_t matches = 0;
      for (size_t s = 0; s < views.size(); ++s) {
        matches += views[s].MatchCount(col, shard_et_ids[s].CellIds(r, c));
      }
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

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumnsSharded(
    const std::vector<DbView>& views, const ExampleTable& et) {
  QBE_CHECK_MSG(!views.empty(), "sharded retrieval needs at least one shard");
  std::vector<std::vector<ColumnRef>> result(et.num_columns());
  std::vector<uint32_t> ids;
  std::vector<int> shard_matches;
  std::vector<int> union_scratch;
  std::vector<int> merged;
  std::vector<int> isect_scratch;
  for (int c = 0; c < et.num_columns(); ++c) {
    // Same fold as candidate_gen.cc's IntersectColumnsOverRows, over the
    // merged per-cell sets.
    std::vector<int> gids;
    bool first = true;
    for (int r = 0; r < et.num_rows() && (first || !gids.empty()); ++r) {
      if (et.cell(r, c).IsEmpty()) continue;
      MergedCellColumnsInto(views, et, r, c, &ids, &shard_matches,
                            &union_scratch, &merged);
      if (first) {
        gids = merged;
        first = false;
      } else {
        kernels::IntersectSortedInPlace(&gids, merged, &isect_scratch);
      }
    }
    QBE_CHECK_MSG(!first, "example table has an empty column");
    for (int gid : gids) result[c].push_back(views[0].TextColumnByGid(gid));
  }
  return result;
}

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumnsShardedRelaxed(
    const std::vector<DbView>& views, const ExampleTable& et,
    int min_row_support) {
  QBE_CHECK_MSG(!views.empty(), "sharded retrieval needs at least one shard");
  const Database& db = views[0].base();
  int need = std::min(min_row_support, et.num_rows());
  std::vector<std::vector<ColumnRef>> result(et.num_columns());
  std::vector<uint32_t> ids;
  std::vector<int> shard_matches;
  std::vector<int> union_scratch;
  std::vector<int> merged;
  for (int c = 0; c < et.num_columns(); ++c) {
    std::vector<int> counts(db.TotalTextColumns(), 0);
    int empty_rows = 0;
    for (int r = 0; r < et.num_rows(); ++r) {
      if (et.cell(r, c).IsEmpty()) {
        ++empty_rows;
        continue;
      }
      MergedCellColumnsInto(views, et, r, c, &ids, &shard_matches,
                            &union_scratch, &merged);
      for (int gid : merged) counts[gid] += 1;
    }
    for (int gid = 0; gid < db.TotalTextColumns(); ++gid) {
      if (counts[gid] + empty_rows >= need) {
        result[c].push_back(db.TextColumnByGid(gid));
      }
    }
  }
  return result;
}

DiscoveryResult DiscoverQueriesSharded(const std::vector<DbView>& views,
                                       const ExampleTable& et,
                                       const DiscoveryOptions& options,
                                       uint64_t data_epoch,
                                       ShardStats* stats) {
  QBE_CHECK_MSG(!views.empty(),
                "sharded discovery needs at least one shard view");
  const Database& db = views[0].base();
  DiscoveryResult result;
  if (!et.IsWellFormed()) {
    result.error =
        "example table must be non-empty with no fully-empty row or column";
    return result;
  }
  if (options.algorithm == Algorithm::kWeave && options.min_row_support < 0) {
    result.error =
        "WEAVE has no sharded form: it materializes tuple trees directly "
        "instead of asking existence queries";
    return result;
  }
  if (DeadlineExpired(options)) return MarkTimedOut(result);

  // The catalog is identical across shards by construction (SplitDatabase
  // copies it verbatim), so the schema graph, join-tree enumeration and
  // text-column gids are shard-invariant — build them once from shard 0.
  SchemaGraph graph(db);
  // Bound into the context to satisfy its reference; in sharded mode every
  // evaluation routes through ctx.shards instead.
  Executor exec0(views[0], graph);

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
  gen_options.max_candidates = options.max_candidates;
  gen_options.deadline = options.deadline;
  std::vector<std::vector<ColumnRef>> candidate_columns =
      options.min_row_support >= 0
          ? RetrieveCandidateColumnsShardedRelaxed(views, et,
                                                   options.min_row_support)
          : RetrieveCandidateColumnsSharded(views, et);
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

  // Tokens are resolved per shard against each shard's own dictionary (a
  // global id space does not exist); verification predicates therefore stay
  // token-level (ctx.et_ids = null) and each shard's executor resolves them
  // on entry. The per-shard ET ids built here feed ranking's MatchCount.
  SpanRef resolve_span =
      trace == nullptr ? kNullSpan
                       : trace->OpenSpan(SpanKind::kEtTokenResolve);
  std::vector<EtTokenIds> shard_et_ids;
  shard_et_ids.reserve(views.size());
  for (const DbView& view : views) shard_et_ids.emplace_back(et, view);
  if (trace != nullptr) trace->CloseSpan(resolve_span);

  ShardExecSet::Options shard_options;
  shard_options.subtree_memo = options.subtree_memo;
  shard_options.use_match_cache = options.use_match_cache;
  ShardExecSet shard_set(views, graph, shard_options);

  VerifyContext ctx{db,            graph,
                    exec0,         et,
                    candidates,    options.seed,
                    options.cache, options.deadline,
                    /*et_ids=*/nullptr,
                    options.subtree_memo,
                    /*match_cache=*/nullptr,
                    data_epoch,    /*delta=*/nullptr,
                    trace};
  ctx.shards = &shard_set;

  SpanRef verify_span =
      trace == nullptr ? kNullSpan : trace->OpenSpan(VerifySpanKind(options));

  std::vector<int> matched(candidates.size(), 0);
  std::vector<bool> keep(candidates.size(), false);
  if (options.min_row_support >= 0) {
    int need = std::min(options.min_row_support, et.num_rows());
    EvalEngine engine(ctx, &result.counters);
    Stopwatch timer;
    for (size_t q = 0; q < candidates.size(); ++q) {
      for (int r = 0; r < et.num_rows(); ++r) {
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
  // Cache traffic lives per shard in sharded mode; fold it into the
  // request counters (diagnostics — hit counts legitimately differ from
  // the unsharded engine's, unlike the verification counters above).
  const std::vector<ShardExecSet::ShardCounters> shard_counters =
      shard_set.Counters();
  for (const ShardExecSet::ShardCounters& sc : shard_counters) {
    result.counters.subtree_memo_hits += sc.subtree_memo_hits;
    result.counters.subtree_memo_lookups += sc.subtree_memo_lookups;
    result.counters.match_cache_hits += sc.match_cache_hits;
    result.counters.match_cache_lookups += sc.match_cache_lookups;
  }
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
  if (stats != nullptr) {
    stats->per_shard = shard_counters;
    double max_busy = 0.0;
    double sum_busy = 0.0;
    int active = 0;
    for (const ShardExecSet::ShardCounters& sc : shard_counters) {
      if (sc.probes == 0) continue;
      max_busy = std::max(max_busy, sc.busy_seconds);
      sum_busy += sc.busy_seconds;
      ++active;
    }
    const double mean_busy = active == 0 ? 0.0 : sum_busy / active;
    stats->straggler_ratio = mean_busy > 0.0 ? max_busy / mean_busy : 1.0;
  }

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
    out.score = options.rank_results
                    ? RankScoreSharded(views, shard_et_ids, et, candidates[q])
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

namespace {

bool CatalogsMatch(const Database& a, const Database& b, std::string* why) {
  auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (a.num_relations() != b.num_relations()) {
    return fail("different relation counts");
  }
  for (int r = 0; r < a.num_relations(); ++r) {
    const Relation& ra = a.relation(r);
    const Relation& rb = b.relation(r);
    if (ra.name() != rb.name()) {
      return fail("relation " + std::to_string(r) + " named '" + ra.name() +
                  "' vs '" + rb.name() + "'");
    }
    if (ra.num_columns() != rb.num_columns()) {
      return fail("relation '" + ra.name() + "' has different column counts");
    }
    for (int c = 0; c < ra.num_columns(); ++c) {
      if (ra.columns()[c].name != rb.columns()[c].name ||
          ra.columns()[c].type != rb.columns()[c].type) {
        return fail("relation '" + ra.name() + "' column " +
                    std::to_string(c) + " differs");
      }
    }
  }
  if (a.foreign_keys().size() != b.foreign_keys().size()) {
    return fail("different foreign-key counts");
  }
  for (size_t e = 0; e < a.foreign_keys().size(); ++e) {
    const ForeignKey& fa = a.foreign_keys()[e];
    const ForeignKey& fb = b.foreign_keys()[e];
    if (fa.from_rel != fb.from_rel || fa.from_col != fb.from_col ||
        fa.to_rel != fb.to_rel || fa.to_col != fb.to_col) {
      return fail("foreign-key edge " + std::to_string(e) + " differs");
    }
  }
  return true;
}

}  // namespace

ShardCoordinator::ShardCoordinator(std::vector<Database> shards) {
  QBE_CHECK_MSG(!shards.empty(), "coordinator needs at least one shard");
  shards_.reserve(shards.size());
  for (Database& db : shards) {
    shards_.push_back(std::make_unique<Database>(std::move(db)));
  }
}

std::optional<ShardCoordinator> ShardCoordinator::Open(const ShardSet& set,
                                                       std::string* error) {
  std::vector<std::unique_ptr<Database>> shards;
  shards.reserve(set.paths.size());
  for (const std::string& path : set.paths) {
    std::string why;
    std::optional<Database> db = Database::OpenSnapshot(path, &why);
    if (!db.has_value()) {
      if (error != nullptr) *error = path + ": " + why;
      return std::nullopt;
    }
    if (!shards.empty()) {
      std::string mismatch;
      if (!CatalogsMatch(*shards[0], *db, &mismatch)) {
        if (error != nullptr) {
          *error = path + ": catalog mismatch with shard 0 (" + mismatch + ")";
        }
        return std::nullopt;
      }
    }
    shards.push_back(std::make_unique<Database>(std::move(*db)));
  }
  if (shards.empty()) {
    if (error != nullptr) *error = "shardset names no shards";
    return std::nullopt;
  }
  return ShardCoordinator(std::move(shards));
}

DiscoveryResult ShardCoordinator::Discover(const ExampleTable& et,
                                           const DiscoveryOptions& options,
                                           ShardStats* stats) const {
  std::vector<DbView> views;
  views.reserve(shards_.size());
  for (const auto& shard : shards_) views.emplace_back(*shard);
  return DiscoverQueriesSharded(views, et, options, 0, stats);
}

}  // namespace qbe
