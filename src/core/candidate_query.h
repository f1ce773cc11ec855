#ifndef QBE_CORE_CANDIDATE_QUERY_H_
#define QBE_CORE_CANDIDATE_QUERY_H_

#include <vector>

#include "core/example_table.h"
#include "exec/predicate.h"
#include "schema/join_tree.h"
#include "schema/schema_graph.h"
#include "storage/database.h"

namespace qbe {

/// A (minimal) candidate project-join query (Definition 4): a join tree J
/// plus the projection mapping φ from ET columns to text columns of J's
/// relations. `projection[i]` is φ(i) and is always defined (candidates map
/// every ET column; only filters have undefined positions).
struct CandidateQuery {
  JoinTree tree;
  std::vector<ColumnRef> projection;

  friend bool operator==(const CandidateQuery& a, const CandidateQuery& b) {
    return a.tree == b.tree && a.projection == b.projection;
  }
};

/// Minimality (Definition 3 condition ii): every degree-≤1 relation of the
/// join tree hosts at least one mapped ET column — otherwise the leaf (and
/// its join) could be removed while staying valid.
bool IsMinimalCandidate(const CandidateQuery& query, const SchemaGraph& graph);

/// The CQ-row verification predicates for `query` on ET row `row` (§4.1):
/// one CONTAINS conjunct per non-empty cell.
std::vector<PhrasePredicate> RowPredicates(const CandidateQuery& query,
                                           const ExampleTable& et, int row);

/// Allocation-reusing variant: rewrites `*out` in place (existing elements'
/// buffers are reused). With non-null `et_ids`, predicates carry the
/// request's pre-resolved token ids so the executor skips all per-call
/// dictionary lookups.
void RowPredicatesInto(const CandidateQuery& query, const ExampleTable& et,
                       const EtTokenIds* et_ids, int row,
                       std::vector<PhrasePredicate>* out);

}  // namespace qbe

#endif  // QBE_CORE_CANDIDATE_QUERY_H_
