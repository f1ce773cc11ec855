#include "core/candidate_query.h"

#include "schema/join_tree_catalog.h"
#include "util/check.h"

namespace qbe {

bool IsMinimalCandidate(const CandidateQuery& query,
                        const SchemaGraph& graph) {
  const JoinTreeCatalog& catalog = graph.catalog(query.tree.NumVertices());
  const int id = catalog.Find(query.tree);
  QBE_CHECK_MSG(id >= 0, "not a join tree of this schema graph");
  RelationSet mapped;
  for (const ColumnRef& col : query.projection) mapped.Set(col.rel);
  return catalog.leaves(id).IsSubsetOf(mapped);
}

std::vector<PhrasePredicate> RowPredicates(const CandidateQuery& query,
                                           const ExampleTable& et, int row) {
  std::vector<PhrasePredicate> predicates;
  RowPredicatesInto(query, et, nullptr, row, &predicates);
  return predicates;
}

void RowPredicatesInto(const CandidateQuery& query, const ExampleTable& et,
                       const EtTokenIds* et_ids, int row,
                       std::vector<PhrasePredicate>* out) {
  size_t n = 0;
  for (int c = 0; c < et.num_columns(); ++c) {
    const EtCell& cell = et.cell(row, c);
    if (cell.IsEmpty()) continue;
    if (out->size() == n) out->emplace_back();
    PhrasePredicate& pred = (*out)[n++];
    pred.column = query.projection[c];
    pred.tokens = et.CellTokens(row, c);
    pred.exact = cell.exact;
    pred.fingerprint = et.CellFingerprint(row, c);
    if (et_ids != nullptr) {
      pred.ids = et_ids->CellIds(row, c);
    } else {
      pred.ids.clear();
    }
  }
  out->resize(n);
}

}  // namespace qbe
