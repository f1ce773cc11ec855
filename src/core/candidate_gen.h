#ifndef QBE_CORE_CANDIDATE_GEN_H_
#define QBE_CORE_CANDIDATE_GEN_H_

#include <cstddef>
#include <vector>

#include "core/candidate_query.h"
#include "core/example_table.h"
#include "schema/schema_graph.h"
#include "storage/database.h"
#include "util/deadline.h"

namespace qbe {

class DbView;

struct CandidateGenOptions {
  /// Maximal join length l: the largest number of relations allowed in a
  /// candidate join tree (Table 3; default 4).
  int max_join_tree_size = 4;

  /// Safety valve against pathological example tables: candidate
  /// enumeration stops after this many candidates.
  size_t max_candidates = 200000;

  /// When set, polled once per enumerated join tree; on expiry enumeration
  /// stops and returns the candidates found so far.
  const DeadlineToken* deadline = nullptr;
};

/// Candidate projection-column retrieval (§3.2 step 1, Eq. 3): for each ET
/// column j, the base-table text columns containing *every* non-empty cell
/// value of column j, computed by intersecting master-column-index lookups.
std::vector<std::vector<ColumnRef>> RetrieveCandidateColumns(
    const Database& db, const ExampleTable& et);

/// Relaxed column constraint for the min-row-support extension (paper §8
/// future work): a base column qualifies for ET column j if at least
/// `min_row_support` rows are compatible with it (a row is compatible when
/// its cell is empty or contained in the column). With
/// `min_row_support == et.num_rows()` this reduces to Eq. 3.
std::vector<std::vector<ColumnRef>> RetrieveCandidateColumnsRelaxed(
    const Database& db, const ExampleTable& et, int min_row_support);

/// Version-aware retrieval over a pinned live-database epoch: identical to
/// the Database overloads on a plain view; with a delta overlay, phrases
/// and columns only present in appended rows participate. The result may be
/// a superset of a cold load's (a column whose only containing rows are
/// tombstoned can survive retrieval) — verification is exact and eliminates
/// such candidates; retrieval must never underreport.
std::vector<std::vector<ColumnRef>> RetrieveCandidateColumns(
    const DbView& view, const ExampleTable& et);

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumnsRelaxed(
    const DbView& view, const ExampleTable& et, int min_row_support);

/// Candidate query enumeration (§3.2 step 2): all minimal candidate
/// project-join queries over the schema graph whose projection mapping
/// draws from `candidate_columns` and whose join tree has at most
/// `options.max_join_tree_size` relations. No joins are executed. A caller
/// passing `options.deadline` must treat the result as truncated once the
/// deadline has expired.
std::vector<CandidateQuery> EnumerateCandidateQueries(
    const Database& db, const SchemaGraph& graph, const ExampleTable& et,
    const std::vector<std::vector<ColumnRef>>& candidate_columns,
    const CandidateGenOptions& options);

/// Convenience wrapper running both steps.
std::vector<CandidateQuery> GenerateCandidates(
    const Database& db, const SchemaGraph& graph, const ExampleTable& et,
    const CandidateGenOptions& options);

}  // namespace qbe

#endif  // QBE_CORE_CANDIDATE_GEN_H_
