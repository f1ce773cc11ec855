#ifndef QBE_CORE_SESSION_H_
#define QBE_CORE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "core/example_table.h"
#include "core/verifier.h"
#include "storage/database.h"

namespace qbe {

/// Interactive discovery session: the user refines the example table
/// incrementally — typically adding one remembered tuple at a time to
/// narrow the returned queries — and each step reuses the previous steps'
/// verification outcomes. A verification's result depends only on its join
/// tree and predicates, never on which ET row produced them, so when a row
/// is added every evaluation from earlier steps is still valid; only
/// predicates involving the new row's values hit the executor.
///
/// This is the natural system companion to the paper's batch task: §1's
/// information worker rarely types the whole ET up front.
class DiscoverySession {
 public:
  /// The database must outlive the session and have indexes built. The
  /// session owns a private single-threaded EvalCache.
  explicit DiscoverySession(const Database& db,
                            const DiscoveryOptions& options = {});

  /// Shares verification outcomes with other sessions through
  /// `shared_cache` (not owned; must outlive the session). Pass a
  /// thread-safe implementation — typically the ConcurrentEvalCache owned
  /// by a DiscoveryService — when sessions run on different threads.
  DiscoverySession(const Database& db, const DiscoveryOptions& options,
                   EvalCacheBase* shared_cache);

  /// Replaces the example table (keeps the outcome cache).
  void SetTable(ExampleTable et);

  /// Appends one row ("" cells are empty). The column count is fixed by
  /// the first row / SetTable call.
  void AddRow(const std::vector<std::string>& cells);

  /// Removes the last row (undo); cached outcomes are kept.
  void RemoveLastRow();

  /// Arms (null = disarms) request tracing for subsequent Discover calls
  /// (obs/trace.h; observation-only — outcomes and verification counts are
  /// unaffected). Not owned; must outlive the Discover calls it covers.
  void set_trace(TraceContext* trace) { options_.trace = trace; }

  /// Runs discovery for the current table, reusing cached outcomes.
  /// Check-fails if no rows have been provided yet.
  DiscoveryResult Discover();

  const ExampleTable& table() const;
  int num_rows() const;

  /// Cumulative verifications actually executed across all Discover calls.
  int64_t total_verifications() const { return total_verifications_; }
  /// Verifications avoided thanks to the cache. With a shared cache these
  /// are process-wide numbers, not per-session ones.
  int64_t cache_hits() const { return cache_->hits(); }
  size_t cache_size() const { return cache_->size(); }

 private:
  void RebuildTable();

  const Database& db_;
  DiscoveryOptions options_;
  EvalCache own_cache_;
  EvalCacheBase* cache_;  // own_cache_ or the shared cache
  std::vector<std::string> column_names_;
  std::vector<std::vector<EtCell>> rows_;
  std::unique_ptr<ExampleTable> et_;
  int64_t total_verifications_ = 0;
};

}  // namespace qbe

#endif  // QBE_CORE_SESSION_H_
