#include "core/verify_all.h"

#include <algorithm>
#include <numeric>

#include "util/rng.h"
#include "util/stopwatch.h"

namespace qbe {

std::string EvalCacheKey(const Database& db, const JoinTree& tree,
                         const std::vector<PhrasePredicate>& predicates) {
  std::string key;
  tree.verts.ForEach([&](int v) { key += 'v' + std::to_string(v); });
  tree.edges.ForEach([&](int e) { key += 'e' + std::to_string(e); });
  std::vector<std::string> parts;
  parts.reserve(predicates.size());
  for (const PhrasePredicate& pred : predicates) {
    std::string part =
        std::to_string(db.TextColumnGid(pred.column)) + (pred.exact ? "!" : ":");
    for (const std::string& token : pred.tokens) part += token + ' ';
    parts.push_back(std::move(part));
  }
  std::sort(parts.begin(), parts.end());
  for (const std::string& part : parts) {
    key += '|';
    key += part;
  }
  return key;
}

bool EvalEngine::Execute(const JoinTree& tree,
                         const std::vector<PhrasePredicate>& predicates,
                         int cost) {
  if (ctx_.deadline != nullptr && ctx_.deadline->Expired()) {
    // Abort point between CQ-row checks: report failure without executing
    // and without caching — a fabricated "false" written to a shared cache
    // would outlive this request and corrupt every other session.
    counters_->aborted = true;
    return false;
  }
  // One *logical* existence query: charged to the counters exactly once
  // however many views the probe set asks (DESIGN.md §15), so cached
  // outcomes stay logical-level and shared across shard counts.
  auto run_exec = [&]() {
    counters_->verifications += 1;
    counters_->estimated_cost += cost;
    ScopedSpan exec_span(ctx_.trace, SpanKind::kEvalExec);
    return ctx_.probes.Exists(tree, predicates, ctx_.trace, exec_span.ref());
  };
  if (ctx_.cache != nullptr) {
    std::string key = EvalCacheKey(ctx_.db, tree, predicates);
    // Outcomes are only reusable within one data version: epoch 0 (the
    // plain database) keeps the historical key shape, any pinned live
    // epoch gets its own namespace so appends/tombstones can never serve
    // a stale cached answer.
    if (ctx_.data_epoch != 0) {
      key.insert(0, '@' + std::to_string(ctx_.data_epoch) + '#');
    }
    std::optional<bool> cached;
    {
      ScopedSpan lookup_span(ctx_.trace, SpanKind::kEvalCacheLookup);
      cached = ctx_.cache->Lookup(key);
    }
    if (ctx_.trace != nullptr) {
      ctx_.trace->Count(TraceCounter::kEvalCacheLookups, 1);
      if (cached.has_value()) {
        ctx_.trace->Count(TraceCounter::kEvalCacheHits, 1);
      }
    }
    if (cached.has_value()) return *cached;
    bool ok = run_exec();
    ctx_.cache->Insert(key, ok);
    return ok;
  }
  return run_exec();
}

bool EvalEngine::EvaluateFilter(const Filter& filter) {
  FilterPredicatesInto(filter, ctx_.et, ctx_.et_ids, &preds_scratch_);
  if (preds_scratch_.empty()) {
    // Outcome depends only on the join tree; memoize (see class comment).
    auto it = empty_join_cache_.find(filter.tree);
    if (it != empty_join_cache_.end()) return it->second;
    bool ok = Execute(filter.tree, preds_scratch_, filter.Cost());
    empty_join_cache_.emplace(filter.tree, ok);
    return ok;
  }
  return Execute(filter.tree, preds_scratch_, filter.Cost());
}

bool EvalEngine::EvaluateCandidateRow(int q, int row) {
  const CandidateQuery& query = ctx_.candidates[q];
  RowPredicatesInto(query, ctx_.et, ctx_.et_ids, row, &preds_scratch_);
  return Execute(query.tree, preds_scratch_, query.tree.NumVertices());
}

std::vector<int> MakeRowOrder(const ExampleTable& et, RowOrder order,
                              uint64_t seed) {
  std::vector<int> rows(et.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  switch (order) {
    case RowOrder::kGiven:
      break;
    case RowOrder::kRandom: {
      Rng rng(seed);
      rng.Shuffle(rows);
      break;
    }
    case RowOrder::kDenseFirst:
      std::stable_sort(rows.begin(), rows.end(), [&](int a, int b) {
        return et.NonEmptyCellCount(a) > et.NonEmptyCellCount(b);
      });
      break;
  }
  return rows;
}

std::vector<bool> VerifyAll::Verify(const VerifyContext& ctx,
                                    VerificationCounters* counters) {
  Stopwatch timer;
  std::vector<int> row_order = MakeRowOrder(ctx.et, row_order_, ctx.seed);
  int n = static_cast<int>(ctx.candidates.size());
  std::vector<bool> valid(ctx.candidates.size(), false);

  EvalEngine engine(ctx, counters);
  // Each candidate stops at its first failing row.
  for (int q = 0; q < n; ++q) {
    valid[q] = true;
    for (int row : row_order) {
      if (!engine.EvaluateCandidateRow(q, row)) {
        valid[q] = false;
        break;
      }
    }
  }

  counters->elapsed_seconds += timer.ElapsedSeconds();
  return valid;
}

}  // namespace qbe
