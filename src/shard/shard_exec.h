#ifndef QBE_SHARD_SHARD_EXEC_H_
#define QBE_SHARD_SHARD_EXEC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exec/executor.h"
#include "exec/match_cache.h"
#include "ingest/db_view.h"
#include "obs/trace.h"
#include "schema/schema_graph.h"

namespace qbe {

struct VerificationCounters;

/// One view's probe accounting in a multi-view request (diagnostics only;
/// never feeds back into outcomes).
struct ShardCounters {
  int64_t probes = 0;         // existence queries actually run here
  int64_t hits = 0;           // probes that found a witness here
  int64_t skipped_empty = 0;  // probes skipped: some tree vertex empty
  double busy_seconds = 0.0;  // wall time spent executing probes
};

/// Per-request multi-view diagnostics (metrics/straggler gauges).
struct ShardStats {
  std::vector<ShardCounters> per_shard;
  /// max / mean busy_seconds over shards that executed at least one probe;
  /// 1.0 when perfectly balanced (or nothing ran). The service exports it
  /// as the straggler gauge.
  double straggler_ratio = 1.0;
};

/// The caches a ShardExecSet keeps per view. The defaults are the paper
/// harness's configuration: memo on, match cache off. Both are
/// execution-cost only — outcomes and verification counts are identical
/// either way.
struct ShardExecOptions {
  /// Shares reduced predicate-free join subtrees across every existence
  /// query of the request (Executor::SubtreeMemo).
  bool subtree_memo = true;
  /// Shares (column, phrase-ids) → row-set match results across every
  /// existence query of the request (exec/match_cache.h).
  bool use_match_cache = false;
};

/// The execution state of one discovery request over its pinned views — a
/// single view for unsharded discovery, one per shard otherwise (DESIGN.md
/// §15): one Executor per view plus the per-view caches whose values are
/// functions of view-local data (SubtreeMemo stores view-local row sets,
/// MatchCache view-local row lists — sharing either across views would
/// corrupt results). Every existence query a verifier asks goes through
/// Exists().
///
/// Correctness: FK co-location guarantees every join witness lies wholly
/// inside one shard, so a logical existence query is true iff it is true
/// on some shard — the OR over shard-local probes. The probe *order* only
/// affects which shard answers, never the answer, and EvalEngine charges
/// its counters once per logical query, so verification counts and
/// outcomes are the same for every partition of the data.
class ShardExecSet {
 public:
  /// Copies the views (cheap value types); the data they pin must outlive
  /// this set. The graph is schema-level and shared by all views, which
  /// must share one catalog (SplitDatabase and OpenShardSet guarantee it).
  ShardExecSet(std::span<const DbView> views, const SchemaGraph& graph,
               const ShardExecOptions& options = {});
  ShardExecSet(const DbView& view, const SchemaGraph& graph,
               const ShardExecOptions& options = {})
      : ShardExecSet(std::span<const DbView>(&view, 1), graph, options) {}

  /// True iff some view has a witness for the existence query. With one
  /// view this is that view's Executor::Exists and nothing else. With
  /// several, views are probed in canonical order with short-circuit;
  /// views where any tree vertex has zero live rows are skipped without
  /// executing (an empty vertex admits no witness); each probe is counted
  /// and timed, and `span` is tagged with the answering shard.
  /// Thread-safe: the caches are thread-safe and the counters atomic.
  bool Exists(const JoinTree& tree,
              const std::vector<PhrasePredicate>& predicates,
              TraceContext* trace, SpanRef span) const;

  /// Live rows of `rel` summed over all views == the unsharded count
  /// (partitioning covers every row exactly once).
  uint64_t TotalLiveRows(int rel) const;

  /// Adds the request's subtree-memo and match-cache traffic, summed over
  /// views, to `counters`.
  void AddCacheCounters(VerificationCounters* counters) const;

  /// Per-view probe accounting; all zero for a one-view set, which keeps
  /// none.
  ShardStats Stats() const;

  /// View `s`'s executor, for the harness comparators that materialize.
  const Executor& executor(int s) const { return shards_[s]->exec; }

 private:
  struct Shard {
    DbView exec_view;  // the view this shard's executor reads (copied)
    Executor exec;
    std::unique_ptr<Executor::SubtreeMemo> memo;
    std::unique_ptr<MatchCache> match_cache;
    std::atomic<int64_t> probes{0};
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> skipped_empty{0};
    std::atomic<int64_t> busy_ns{0};

    Shard(const DbView& view, const SchemaGraph& graph,
          const ShardExecOptions& options)
        : exec_view(view),
          exec(exec_view, graph),
          memo(options.subtree_memo
                   ? std::make_unique<Executor::SubtreeMemo>()
                   : nullptr),
          match_cache(options.use_match_cache ? std::make_unique<MatchCache>()
                                              : nullptr) {}
  };

  // unique_ptr per shard: Shard holds atomics and an Executor referencing
  // its own exec_view, so elements must never move.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace qbe

#endif  // QBE_SHARD_SHARD_EXEC_H_
