#ifndef QBE_CORE_EXPLAIN_H_
#define QBE_CORE_EXPLAIN_H_

#include <map>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "core/example_table.h"
#include "storage/database.h"

namespace qbe {

/// Structured trace of one discovery run — the system's EXPLAIN. Exposes
/// what each pipeline stage decided so users can understand *why* a query
/// was (not) returned: which base columns each ET column could map to
/// (Eq. 3), how the candidate set distributes over join-tree sizes, how
/// large the filter universe was, and what verification cost each stage
/// incurred.
struct DiscoveryExplain {
  struct EtColumnInfo {
    std::string name;
    /// Qualified candidate projection columns ("Customer.CustName").
    std::vector<std::string> candidate_columns;
  };

  std::vector<EtColumnInfo> et_columns;
  size_t num_candidates = 0;
  /// Candidate count per join-tree size (index = #relations).
  std::map<int, size_t> candidates_by_tree_size;
  size_t num_valid = 0;
  /// Deduplicated filters across all candidates (§5.2's F).
  size_t num_filters = 0;
  /// Filters resolvable without any verification (column-constraint
  /// trivial successes).
  size_t num_trivial_filters = 0;
  VerificationCounters counters;
  std::vector<DiscoveredQuery> queries;
  /// Empty on success; otherwise the error DiscoverQueries returned for the
  /// same input (e.g. a malformed example table), and no stage ran.
  std::string error;

  bool ok() const { return error.empty(); }

  /// Multi-line human-readable rendering.
  std::string ToString() const;
};

/// Runs discovery with full tracing (same results as DiscoverQueries with
/// the same options; slower only by the bookkeeping).
DiscoveryExplain ExplainDiscovery(const Database& db, const ExampleTable& et,
                                  const DiscoveryOptions& options = {});

}  // namespace qbe

#endif  // QBE_CORE_EXPLAIN_H_
