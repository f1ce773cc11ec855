#ifndef QBE_CORE_DISCOVERY_H_
#define QBE_CORE_DISCOVERY_H_

#include <span>
#include <string>
#include <vector>

#include "core/candidate_gen.h"
#include "core/candidate_query.h"
#include "core/example_table.h"
#include "core/verifier.h"
#include "storage/database.h"

namespace qbe {

/// Which candidate-verification algorithm drives discovery. All produce
/// identical valid sets; they differ in cost (§2.3).
enum class Algorithm {
  kVerifyAll,
  kSimplePrune,
  kFilter,
  kFilterExact,
  kWeave,
};

struct DiscoveryOptions {
  /// Maximal join length l (Table 3 default).
  int max_join_tree_size = 4;

  Algorithm algorithm = Algorithm::kFilter;

  /// Row order for the baseline algorithms.
  RowOrder row_order = RowOrder::kDenseFirst;

  /// p̂ of FILTER's probabilistic model (§5.3.1).
  double failure_prior = 0.1;

  /// Seed for any randomized choices (e.g., RowOrder::kRandom).
  uint64_t seed = 42;

  /// Relaxed validity (paper §8 future work): when ≥ 0, a query is
  /// reported if it contains at least this many ET rows in its output
  /// instead of all of them. −1 keeps the paper's strict semantics.
  int min_row_support = -1;

  /// Rank the valid queries (paper §8 future work): simpler join trees and
  /// more selective projection columns first.
  bool rank_results = true;

  size_t max_candidates = 200000;

  /// Optional shared verification-outcome cache (see EvalCacheBase); used
  /// by DiscoverySession to make incremental refinement cheap and by
  /// DiscoveryService to share outcomes across concurrent requests. Not
  /// owned. Must be a thread-safe implementation (ConcurrentEvalCache)
  /// when discoveries run concurrently.
  EvalCacheBase* cache = nullptr;

  /// Optional cooperative deadline/cancellation token (per-request timeout
  /// in DiscoveryService). Polled between CQ-row verifications; an expired
  /// run returns DiscoveryResult::timed_out with no queries. Not owned.
  const DeadlineToken* deadline = nullptr;

  /// Shares reduced predicate-free join subtrees across the candidates of
  /// this request (Executor::SubtreeMemo). Purely an execution-cost
  /// optimization: outcomes, verification counts, and the valid set are
  /// bit-identical with it on or off.
  bool subtree_memo = true;

  /// Shares (column, phrase-ids) → row-set match results across every
  /// existence query of this request (see exec/match_cache.h). Purely an
  /// execution-cost optimization: outcomes, verification counts, and the
  /// valid set are bit-identical with it on or off.
  bool use_match_cache = true;

  /// Optional request-scoped trace (obs/trace.h, DESIGN.md §13): discovery
  /// records per-phase spans (candidate generation, per-algorithm verify,
  /// text matching, cache lookups) and counters into it. Not owned.
  /// Tracing is observation-only: outcomes, verification counts, and the
  /// valid set are bit-identical with it armed or null.
  TraceContext* trace = nullptr;
};

/// One discovered query: the minimal valid project-join query, its SQL
/// rendering, the rows it matched, and a ranking score (higher = better).
struct DiscoveredQuery {
  CandidateQuery query;
  std::string sql;
  int matched_rows = 0;
  double score = 0.0;
};

struct DiscoveryResult {
  std::vector<DiscoveredQuery> queries;
  /// All minimal candidate queries considered (Figure 3's denominator).
  size_t num_candidates = 0;
  /// Per-ET-column candidate projection column counts.
  std::vector<size_t> candidate_columns_per_et_column;
  double candidate_gen_seconds = 0.0;
  VerificationCounters counters;
  /// Empty on success; otherwise why discovery refused the input (e.g. an
  /// example table with a fully-empty row or column, Definition 1).
  std::string error;
  /// True when the run was cut short by DiscoveryOptions::deadline; error
  /// is set and `queries` is empty.
  bool timed_out = false;

  bool ok() const { return error.empty(); }
};

/// End-to-end query discovery (the system task of §2.2): candidate
/// generation (§3.2) followed by candidate verification with the selected
/// algorithm, over one or more pinned views of one logical database.
///
/// One view is unsharded discovery. Several views are the FK-co-located
/// shards of one partition (SplitDatabase or a shardset manifest; one
/// shared catalog; DESIGN.md §15): retrieval unions each cell's column set
/// across views, every existence query is answered by probing the views in
/// canonical order, and ranking sums match and live-row counts over them —
/// so the SQL, scores, matched-row counts and verification counters are the
/// same for every partition of the data. `data_epoch` namespaces shared
/// eval-cache outcomes per data version (0 = plain immutable data). A
/// non-null `stats` receives the per-view probe accounting, which only a
/// multi-view request keeps.
DiscoveryResult DiscoverQueries(std::span<const DbView> views,
                                const ExampleTable& et,
                                const DiscoveryOptions& options,
                                uint64_t data_epoch,
                                ShardStats* stats = nullptr);

/// One plain database.
DiscoveryResult DiscoverQueries(const Database& db, const ExampleTable& et,
                                const DiscoveryOptions& options = {});

/// One pinned live-database epoch (base + delta overlay; DESIGN.md §12).
DiscoveryResult DiscoverQueries(const DbView& view, const ExampleTable& et,
                                const DiscoveryOptions& options,
                                uint64_t data_epoch);

}  // namespace qbe

#endif  // QBE_CORE_DISCOVERY_H_
