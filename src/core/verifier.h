#ifndef QBE_CORE_VERIFIER_H_
#define QBE_CORE_VERIFIER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/candidate_query.h"
#include "core/example_table.h"
#include "core/filter.h"
#include "exec/executor.h"
#include "obs/trace.h"
#include "schema/schema_graph.h"
#include "shard/shard_exec.h"
#include "storage/database.h"
#include "util/check.h"
#include "util/deadline.h"

namespace qbe {

/// Row orderings for the baseline verifiers (§4.1): as given, uniformly
/// shuffled, or densest row first (candidates are likelier to fail on
/// densely populated rows, enabling early elimination).
enum class RowOrder { kGiven, kRandom, kDenseFirst };

/// Performance accounting shared by all verification algorithms; these are
/// the metrics of §6.1 (number of verifications, total estimated cost = sum
/// of join-tree sizes, execution time) plus the tuple-tree memory footprint
/// of Figure 16.
struct VerificationCounters {
  int64_t verifications = 0;
  int64_t estimated_cost = 0;
  double elapsed_seconds = 0.0;
  int64_t pruned_without_verification = 0;
  size_t peak_memory_bytes = 0;
  /// Set when a DeadlineToken expired mid-run: the validity vector is not
  /// trustworthy (remaining evaluations were reported as failures without
  /// executing) and the caller must discard the results.
  bool aborted = false;
  /// Shared join-subtree memo traffic (Executor::SubtreeMemo): lookups and
  /// hits for reduced predicate-free subtrees reused across candidates.
  int64_t subtree_memo_hits = 0;
  int64_t subtree_memo_lookups = 0;
  /// Shared (column, phrase-ids) → row-set cache traffic (MatchCache):
  /// posting-list scans saved inside SeedNode. Execution-cost only; the
  /// verification counters above are charged identically with or without
  /// the cache.
  int64_t match_cache_hits = 0;
  int64_t match_cache_lookups = 0;

  void Add(const VerificationCounters& other) {
    verifications += other.verifications;
    estimated_cost += other.estimated_cost;
    elapsed_seconds += other.elapsed_seconds;
    pruned_without_verification += other.pruned_without_verification;
    if (other.peak_memory_bytes > peak_memory_bytes) {
      peak_memory_bytes = other.peak_memory_bytes;
    }
    aborted = aborted || other.aborted;
    subtree_memo_hits += other.subtree_memo_hits;
    subtree_memo_lookups += other.subtree_memo_lookups;
    match_cache_hits += other.match_cache_hits;
    match_cache_lookups += other.match_cache_lookups;
  }

  double SubtreeMemoHitRate() const {
    return subtree_memo_lookups == 0
               ? 0.0
               : static_cast<double>(subtree_memo_hits) /
                     static_cast<double>(subtree_memo_lookups);
  }
};

/// Cross-run cache of verification outcomes. A filter's result is fully
/// determined by its join tree and predicate set (the ET row is only a
/// source of predicate values), so outcomes can be reused across reruns,
/// across incremental discovery steps (DiscoverySession: adding a new ET
/// row leaves every prior row's evaluations valid), and across concurrent
/// requests over the same database (§5's filter sharing, lifted from one
/// run to the whole serving process).
///
/// Implementations: EvalCache below (single-threaded), and
/// ConcurrentEvalCache in src/service/concurrent_eval_cache.h (sharded,
/// thread-safe, shared by DiscoveryService workers).
class EvalCacheBase {
 public:
  virtual ~EvalCacheBase() = default;

  /// The cached outcome for `key`, or nullopt. A found entry counts as a
  /// hit; every call counts as a lookup.
  virtual std::optional<bool> Lookup(const std::string& key) = 0;

  virtual void Insert(const std::string& key, bool outcome) = 0;

  /// Lookups served from the cache / total lookups / entries stored.
  virtual int64_t hits() const = 0;
  virtual int64_t lookups() const = 0;
  virtual size_t size() const = 0;
};

/// Single-threaded EvalCacheBase backed by one unordered_map. NOT
/// thread-safe: its reuse contract is one thread at a time, enforced in
/// debug builds by a thread-affinity check (first use pins the owning
/// thread). Concurrent sessions must share a ConcurrentEvalCache instead.
class EvalCache : public EvalCacheBase {
 public:
  std::optional<bool> Lookup(const std::string& key) override {
    CheckAffinity();
    ++lookups_;
    auto it = outcomes_.find(key);
    if (it == outcomes_.end()) return std::nullopt;
    ++hits_;
    return it->second;
  }

  void Insert(const std::string& key, bool outcome) override {
    CheckAffinity();
    outcomes_.emplace(key, outcome);
  }

  int64_t hits() const override { return hits_; }
  int64_t lookups() const override { return lookups_; }
  size_t size() const override { return outcomes_.size(); }

 private:
  void CheckAffinity() const {
#ifndef NDEBUG
    if (owner_ == std::thread::id()) owner_ = std::this_thread::get_id();
    QBE_CHECK_MSG(owner_ == std::this_thread::get_id(),
                  "EvalCache used from a second thread; share a "
                  "ConcurrentEvalCache across threads instead");
#endif
  }

  std::unordered_map<std::string, bool> outcomes_;
  int64_t hits_ = 0;
  int64_t lookups_ = 0;
#ifndef NDEBUG
  mutable std::thread::id owner_;
#endif
};

/// Everything a verification algorithm needs; all references must outlive
/// the call.
struct VerifyContext {
  const Database& db;
  const SchemaGraph& graph;
  /// Runs every existence query of the request over its pinned views (one
  /// view unsharded; DESIGN.md §15), and owns the request's subtree memo
  /// and match cache. Verifiers that consult row counts directly (e.g.
  /// FILTER's trivial-success check) must count live rows through it.
  const ShardExecSet& probes;
  const ExampleTable& et;
  const std::vector<CandidateQuery>& candidates;
  uint64_t seed = 42;
  /// Optional shared outcome cache; cached answers are served without a
  /// verification (and without charging the counters).
  EvalCacheBase* cache = nullptr;
  /// Optional cooperative deadline, polled between CQ-row verifications.
  /// When it expires, remaining evaluations report failure without
  /// executing (and without polluting the cache) and counters.aborted is
  /// set — callers must treat the run's output as void.
  const DeadlineToken* deadline = nullptr;
  /// Optional per-request ET-cell token ids (resolved once against the
  /// one view's dictionary). When set, predicates are built with id
  /// vectors and the executor skips all per-call token resolution.
  const EtTokenIds* et_ids = nullptr;
  /// Epoch of the pinned data version when verifying over a live database
  /// (DESIGN.md §12). 0 = the plain immutable database. Nonzero epochs
  /// prefix every eval-cache key so outcomes never leak across versions
  /// whose data differs.
  uint64_t data_epoch = 0;
  /// Optional request trace (obs/trace.h); EvalEngine records cache-lookup
  /// and execution spans into it. Observation-only — never changes
  /// outcomes or counters. Not owned.
  TraceContext* trace = nullptr;
};

/// Counting wrapper around the executor: evaluates one filter / CQ-row
/// verification (they are the same operation — a candidate-row check is the
/// candidate's basic filter) and charges the counters. Filters with no
/// predicates depend only on the join tree, so their outcome is memoized —
/// re-asking whether a join is non-empty is free, exactly as a DBMS would
/// answer from cache.
class EvalEngine {
 public:
  EvalEngine(const VerifyContext& ctx, VerificationCounters* counters)
      : ctx_(ctx), counters_(counters) {}

  /// Evaluates `filter` (Definition 6). Returns true on success.
  bool EvaluateFilter(const Filter& filter);

  /// Evaluates candidate `q` for ET row `row` (§4.1's CQ-row verification).
  bool EvaluateCandidateRow(int q, int row);

 private:
  /// Executes (or serves from the shared cache) an existence query.
  bool Execute(const JoinTree& tree,
               const std::vector<PhrasePredicate>& predicates, int cost);

  const VerifyContext& ctx_;
  VerificationCounters* counters_;
  std::unordered_map<JoinTree, bool, JoinTreeHash> empty_join_cache_;
  /// Reused predicate buffer: one engine evaluates thousands of CQ-rows /
  /// filters, and rebuilding the vector each time was the dominant
  /// allocation of the verify hot path.
  std::vector<PhrasePredicate> preds_scratch_;
};

/// Canonical cache key for an existence query: join-tree identity plus the
/// sorted predicate set. Exposed for tests.
std::string EvalCacheKey(const Database& db, const JoinTree& tree,
                         const std::vector<PhrasePredicate>& predicates);

/// Returns row indices in the requested order (deterministic given `seed`).
std::vector<int> MakeRowOrder(const ExampleTable& et, RowOrder order,
                              uint64_t seed);

/// Interface implemented by VERIFYALL, SIMPLEPRUNE, FILTER and WEAVE. All
/// implementations return the same validity vector (the correct set of
/// minimal valid queries); they differ only in cost — the paper's central
/// framing.
class CandidateVerifier {
 public:
  virtual ~CandidateVerifier() = default;
  virtual std::string name() const = 0;

  /// Returns valid[i] = whether candidates[i] is valid w.r.t. the whole ET,
  /// and fills `counters`.
  virtual std::vector<bool> Verify(const VerifyContext& ctx,
                                   VerificationCounters* counters) = 0;
};

}  // namespace qbe

#endif  // QBE_CORE_VERIFIER_H_
