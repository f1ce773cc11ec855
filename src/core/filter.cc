#include "core/filter.h"

#include <bit>

namespace qbe {

int Filter::NumConstrainedCells() const {
  return std::popcount(constrained_mask);
}

size_t Filter::Hash() const {
  size_t h = tree.Hash() * 31 + static_cast<size_t>(row);
  for (const ColumnRef& col : phi) {
    h = h * 1000003 + static_cast<size_t>(col.rel + 1) * 4096 +
        static_cast<size_t>(col.col + 1);
  }
  return h;
}

Filter MakeFilter(const CandidateQuery& query, const JoinTree& subtree,
                  const ExampleTable& et, int row) {
  Filter f;
  f.tree = subtree;
  f.row = row;
  f.phi.resize(query.projection.size());
  for (size_t c = 0; c < query.projection.size(); ++c) {
    const ColumnRef& mapped = query.projection[c];
    if (subtree.verts.Test(mapped.rel)) {
      f.phi[c] = mapped;
      const EtCell& cell = et.cell(row, static_cast<int>(c));
      if (!cell.IsEmpty()) {
        f.constrained_mask |= uint32_t{1} << c;
        if (cell.exact) f.exact_mask |= uint32_t{1} << c;
      }
    }
  }
  return f;
}

std::vector<PhrasePredicate> FilterPredicates(const Filter& filter,
                                              const ExampleTable& et) {
  std::vector<PhrasePredicate> predicates;
  FilterPredicatesInto(filter, et, nullptr, &predicates);
  return predicates;
}

void FilterPredicatesInto(const Filter& filter, const ExampleTable& et,
                          const EtTokenIds* et_ids,
                          std::vector<PhrasePredicate>* out) {
  size_t n = 0;
  for (int c = 0; c < et.num_columns(); ++c) {
    if (((filter.constrained_mask >> c) & 1) == 0) continue;
    if (out->size() == n) out->emplace_back();
    PhrasePredicate& pred = (*out)[n++];
    pred.column = filter.phi[c];
    pred.tokens = et.CellTokens(filter.row, c);
    pred.exact = et.cell(filter.row, c).exact;
    pred.fingerprint = et.CellFingerprint(filter.row, c);
    if (et_ids != nullptr) {
      pred.ids = et_ids->CellIds(filter.row, c);
    } else {
      pred.ids.clear();
    }
  }
  out->resize(n);
}

bool IsSubFilterOf(const Filter& sub, const Filter& super) {
  if (sub.row != super.row) return false;
  if (!sub.tree.IsSubtreeOf(super.tree)) return false;
  // Lemma 3 condition ii): on every constrained cell of `sub`, the two
  // projections must agree (sub's mask only covers defined, non-empty
  // cells; undefined or empty cells are unconstrained).
  if ((sub.constrained_mask & ~super.constrained_mask) != 0) return false;
  uint32_t mask = sub.constrained_mask;
  while (mask != 0) {
    int c = std::countr_zero(mask);
    mask &= mask - 1;
    if (!(sub.phi[c] == super.phi[c])) return false;
  }
  return true;
}

bool QueryFailureImplies(const CandidateQuery& failed,
                         const CandidateQuery& other, const ExampleTable& et,
                         int row) {
  if (!failed.tree.IsSubtreeOf(other.tree)) return false;
  for (int c = 0; c < et.num_columns(); ++c) {
    if (et.cell(row, c).IsEmpty()) continue;
    if (!(failed.projection[c] == other.projection[c])) return false;
  }
  return true;
}

}  // namespace qbe
