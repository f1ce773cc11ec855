#include "core/filter_verifier.h"

#include <algorithm>
#include <queue>

#include "shard/shard_exec.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace qbe {
namespace {

enum class FilterState : uint8_t { kUnknown, kSuccess, kFailed };

/// All mutable bookkeeping of one Algorithm 1 run. Outcomes are tracked
/// per predicate class (FilterUniverse): the members of a class run the
/// same existence query and imply each other, so they always share their
/// state and FX membership.
struct AdaptiveState {
  const FilterUniverse& u;
  const VerifyContext& ctx;
  double failure_prior;
  bool adaptive_prior = false;
  int evaluated = 0;
  int failed = 0;

  std::vector<FilterState> state;   // per class
  std::vector<char> in_fx;          // per class: FX membership
  std::vector<char> alive;          // QX membership
  std::vector<bool> valid;
  std::vector<int> rem;             // |F(Q) ∩ FX| per query
  std::vector<int> basic_unresolved;  // basic filters not yet known-success
  std::vector<int> live_count;      // alive queries containing each filter
  /// Per class: Σ live_count over its members while the class is in FX,
  /// 0 once it leaves — the class's whole contribution to any W+.
  std::vector<int64_t> fx_live;
  int num_alive;
  // nF of each filter and n of the ET (§5.3.1), read on every Score.
  std::vector<uint8_t> num_cells;
  int num_columns;

  // Per-filter selection cost under the configured cost model (the
  // counters always charge the paper's tree-size cost so metrics stay
  // comparable; the model only steers selection).
  std::vector<double> selection_cost;

  AdaptiveState(const FilterUniverse& universe, const VerifyContext& context,
                double prior)
      : u(universe), ctx(context), failure_prior(prior) {
    int nf = u.num_filters();
    int nc = u.num_classes();
    int nq = static_cast<int>(ctx.candidates.size());
    state.assign(nc, FilterState::kUnknown);
    in_fx.assign(nc, 1);
    alive.assign(nq, 1);
    valid.assign(nq, false);
    rem.resize(nq);
    basic_unresolved.resize(nq);
    live_count.assign(nf, 0);
    fx_live.assign(nc, 0);
    num_alive = nq;
    num_cells.resize(nf);
    for (int f = 0; f < nf; ++f) {
      num_cells[f] = static_cast<uint8_t>(u.filters[f].NumConstrainedCells());
    }
    num_columns = ctx.et.num_columns();
    for (int q = 0; q < nq; ++q) {
      rem[q] = static_cast<int>(u.filters_of_query[q].size());
      basic_unresolved[q] =
          static_cast<int>(u.basic_filters_of_query[q].size());
      for (int f : u.filters_of_query[q]) {
        live_count[f] += 1;
        fx_live[u.class_of[f]] += 1;
      }
    }
  }

  bool InFx(int f) const { return in_fx[u.class_of[f]] != 0; }

  double FailureProbability(int f) const {
    double prior = failure_prior;
    if (adaptive_prior) {
      // Bayes-smoothed running failure rate, clamped away from the
      // degenerate extremes; the model keeps the paper's "constant p̂"
      // structure, only the constant tracks the workload.
      prior = std::clamp((1.0 + failed) / (2.0 + evaluated), 0.02, 0.9);
    }
    return prior * num_cells[f] / num_columns;
  }

  void RecordOutcome(bool success) {
    ++evaluated;
    failed += success ? 0 : 1;
  }

  /// E[W(F | ...)] / cost(F), Eqs. (5)-(7) and (9). W+ counts the
  /// (query, filter) pairs whose success would be implied: live_count over
  /// F and its sub-filters still in FX, one aggregate per sub-class. W-
  /// counts the remaining unevaluated filters of every query the failure
  /// would kill. Both are exact integer sums, so the order of summation
  /// cannot change a score.
  double Score(int f) const {
    const int c = u.class_of[f];
    // F implies its own success trivially, even once it has left FX.
    int64_t w_plus = in_fx[c] ? 0 : live_count[f];
    for (int sub : u.sub_classes[c]) w_plus += fx_live[sub];
    int64_t w_minus = 0;
    for (int q : u.queries_of_filter[f]) {
      if (alive[q]) w_minus += rem[q];
    }
    double p = FailureProbability(f);
    double expected = (1.0 - p) * static_cast<double>(w_plus) +
                      p * static_cast<double>(w_minus);
    return expected / selection_cost[f];
  }

  void RemoveFromFx(int c) {
    if (!in_fx[c]) return;
    in_fx[c] = 0;
    fx_live[c] = 0;
    for (int f : u.class_members[c]) {
      for (int q : u.queries_of_filter[f]) {
        if (alive[q]) rem[q] -= 1;
      }
    }
  }

  void ResolveQuery(int q, bool is_valid) {
    if (!alive[q]) return;
    alive[q] = 0;
    valid[q] = is_valid;
    num_alive -= 1;
    for (int f : u.filters_of_query[q]) {
      live_count[f] -= 1;
      const int c = u.class_of[f];
      if (in_fx[c]) fx_live[c] -= 1;
    }
  }

  void MarkSuccess(int c) {
    if (state[c] != FilterState::kUnknown) return;
    state[c] = FilterState::kSuccess;
    RemoveFromFx(c);
    for (int f : u.class_members[c]) {
      for (int q : u.basic_queries_of_filter[f]) {
        if (!alive[q]) continue;
        if (--basic_unresolved[q] == 0) ResolveQuery(q, /*is_valid=*/true);
      }
    }
  }

  void MarkFailure(int c) {
    if (state[c] != FilterState::kUnknown) return;
    state[c] = FilterState::kFailed;
    RemoveFromFx(c);
    for (int f : u.class_members[c]) {
      for (int q : u.queries_of_filter[f]) {
        ResolveQuery(q, /*is_valid=*/false);
      }
    }
  }

  /// Applies an evaluation outcome with full dependency propagation; the
  /// class lists are transitively closed and include the class itself, so
  /// one pass marks F and every implied filter, each class once.
  void Apply(int f, bool success) {
    const int c = u.class_of[f];
    if (success) {
      for (int sub : u.sub_classes[c]) MarkSuccess(sub);  // Lemma 4
    } else {
      for (int super : u.super_classes[c]) MarkFailure(super);  // Lemma 3
    }
  }

  /// Fallback selection when every score degenerates to zero: any basic
  /// filter of an alive query still awaiting evaluation (one always exists
  /// while QX is non-empty; see class invariants).
  int FallbackSelection() const {
    for (size_t q = 0; q < alive.size(); ++q) {
      if (!alive[q]) continue;
      for (int f : u.basic_filters_of_query[q]) {
        if (InFx(f)) return f;
      }
    }
    return -1;
  }
};

int SelectExact(const AdaptiveState& s) {
  int best = -1;
  double best_score = 0.0;
  for (int f = 0; f < s.u.num_filters(); ++f) {
    if (!s.InFx(f)) continue;
    double score = s.Score(f);
    if (score > best_score) {
      best_score = score;
      best = f;
    }
  }
  return best >= 0 ? best : s.FallbackSelection();
}

/// Lazy (accelerated) greedy pick. Scores are adaptively diminishing, so a
/// stale max-heap entry is an upper bound: pop, rescore, and accept when
/// the fresh score still dominates the next entry's stale bound.
int SelectLazy(const AdaptiveState& s,
               std::priority_queue<std::pair<double, int>>& heap) {
  while (!heap.empty()) {
    auto [stale, f] = heap.top();
    heap.pop();
    if (!s.InFx(f)) continue;
    double fresh = s.Score(f);
    if (heap.empty() || fresh >= heap.top().first) return f;
    heap.emplace(fresh, f);
  }
  return s.FallbackSelection();
}

}  // namespace

std::vector<bool> FilterVerifier::Verify(const VerifyContext& ctx,
                                         VerificationCounters* counters) {
  Stopwatch timer;
  Executor::SubtreeMemo subtree_memo;
  EvalEngine engine(ctx, counters,
                    ctx.subtree_memo ? &subtree_memo : nullptr);
  FilterUniverse universe =
      BuildFilterUniverse(ctx.graph, ctx.et, ctx.candidates, ctx.deadline);
  // A universe cut short by the deadline cannot drive Algorithm 1; the
  // caller voids the run (counters.aborted), as for an abort mid-loop.
  if (universe.stopped_early) {
    counters->aborted = true;
    counters->elapsed_seconds += timer.ElapsedSeconds();
    return std::vector<bool>(ctx.candidates.size(), false);
  }
  AdaptiveState s(universe, ctx, options_.failure_prior);
  s.adaptive_prior = options_.adaptive_prior;
  s.selection_cost.resize(universe.num_filters());
  for (int f = 0; f < universe.num_filters(); ++f) {
    const Filter& filter = universe.filters[f];
    if (options_.cost_model == FilterCostModel::kEstimated) {
      QBE_CHECK_MSG(options_.stats != nullptr,
                    "kEstimated cost model requires Options::stats");
      s.selection_cost[f] = options_.stats->EstimateProbeCost(
          ctx.graph, filter.tree, FilterPredicates(filter, ctx.et));
    } else {
      s.selection_cost[f] = filter.Cost();
    }
  }

  // Trivially successful filters (see Filter::IsTriviallySuccessful) are
  // resolved up front: candidate generation already proved them, so no
  // verification is spent and the greedy never gambles on them. Triviality
  // depends only on the tree and the constrained cells, so it is decided
  // once per class.
  for (int c = 0; c < universe.num_classes(); ++c) {
    const Filter& filter = universe.filters[universe.class_members[c][0]];
    if (!filter.IsTriviallySuccessful()) continue;
    // Sharded mode: emptiness is a global property — a relation can be
    // empty in shard 0 yet populated elsewhere, so the check must sum
    // live rows across the whole shard set (DESIGN.md §15).
    const uint64_t live_rows =
        ctx.shards != nullptr
            ? ctx.shards->TotalLiveRows(filter.tree.verts.First())
            : DbView(ctx.db, ctx.delta).LiveRows(filter.tree.verts.First());
    if (live_rows > 0) s.MarkSuccess(c);
  }

  // Algorithm 1: evaluate the next filter, then propagate its outcome
  // before choosing again. Lazy and exact greedy differ only in the pick.
  // The deadline is polled once per pick, so an expired request stops
  // before the next selection instead of after the whole plan.
  // Filters resolved up front are seeded too: their stale entries take part
  // in SelectLazy's comparisons, so dropping them would change which of two
  // equally scored filters is picked.
  std::priority_queue<std::pair<double, int>> heap;
  if (options_.lazy_greedy) {
    for (int f = 0; f < universe.num_filters(); ++f) {
      heap.emplace(s.Score(f), f);
    }
  }
  while (s.num_alive > 0) {
    if (ctx.deadline != nullptr && ctx.deadline->Expired()) {
      counters->aborted = true;
      break;
    }
    int chosen = options_.lazy_greedy ? SelectLazy(s, heap) : SelectExact(s);
    QBE_CHECK(chosen >= 0);
    bool ok = engine.EvaluateFilter(universe.filters[chosen]);
    s.RecordOutcome(ok);
    s.Apply(chosen, ok);
  }

  counters->subtree_memo_hits += subtree_memo.hits();
  counters->subtree_memo_lookups += subtree_memo.lookups();
  counters->elapsed_seconds += timer.ElapsedSeconds();
  return s.valid;
}

}  // namespace qbe
