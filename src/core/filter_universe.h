#ifndef QBE_CORE_FILTER_UNIVERSE_H_
#define QBE_CORE_FILTER_UNIVERSE_H_

#include <span>
#include <vector>

#include "core/candidate_query.h"
#include "core/example_table.h"
#include "core/filter.h"
#include "schema/schema_graph.h"
#include "util/deadline.h"

namespace qbe {

/// Integer lists packed into one array: list i is ids[begin[i], begin[i+1]).
/// The universe holds hundreds of thousands of short lists on wide ETs;
/// one allocation per list cost more than the lists themselves.
struct IdLists {
  std::vector<int> begin{0};
  std::vector<int> ids;

  std::span<const int> operator[](size_t i) const {
    return {ids.data() + begin[i], ids.data() + begin[i + 1]};
  }
  size_t size() const { return begin.size() - 1; }

  /// Closes the list being appended to `ids`.
  void EndList() { begin.push_back(static_cast<int>(ids.size())); }
};

/// The deduplicated set F = ∪_Q F(Q) of all filters of all candidates
/// (§5.2), with the bipartite membership structure and, in factorized
/// form, the sub-filter order Algorithm 1 propagates outcomes along:
///
///  * queries_of_filter[f]  — Q→−(F): candidates Q with F ∈ F(Q); a failed
///    filter invalidates exactly these (Lemma 2).
///  * filters_of_query[q]   — F(Q).
///  * basic_filters_of_query[q] — FB(Q): one filter per ET row (J' = J).
///  * basic_queries_of_filter[f] — the candidates F is a basic filter of.
///
/// Predicate classes. Filters that agree on (subtree, row, constrained-cell
/// mask, φ on that mask) run the same existence query and are sub-filters
/// of each other; they differ only in φ on cells the row leaves empty.
/// Whether F1 is a sub-filter of F2 depends only on their classes, so the
/// order is kept between classes instead of between the many filters:
///
///  * class_of[f] and class_members[c] (ascending filter ids).
///  * sub_classes[c]   — classes whose members are sub-filters of c's
///    members, c included: success of c implies success of these
///    (Lemma 4), i.e. F→+(F) = ∪ members of sub_classes[class_of[F]].
///  * super_classes[c] — the converse, c included: failure of c implies
///    failure of these (Lemma 3), F→−(F).
///
/// Both class lists are transitively closed (the sub-filter relation is).
/// Filter ids follow first-seen order (candidate, row, subtree
/// enumeration); class ids follow their first member.
struct FilterUniverse {
  std::vector<Filter> filters;
  IdLists queries_of_filter;
  IdLists filters_of_query;
  IdLists basic_filters_of_query;
  IdLists basic_queries_of_filter;

  std::vector<int> class_of;
  IdLists class_members;
  IdLists sub_classes;
  IdLists super_classes;

  /// Set when the deadline expired during the build; the universe is then
  /// empty and must not drive verification.
  bool stopped_early = false;

  int num_filters() const { return static_cast<int>(filters.size()); }
  int num_classes() const { return static_cast<int>(class_members.size()); }
};

/// Builds the universe: forms each candidate's filters for every ET row
/// over the subtrees of its join tree (from `graph`'s join-tree catalog),
/// deduplicates filters shared across candidates, groups them into
/// predicate classes, and links the classes by keyed lookup over the
/// catalog's subtree lists. `deadline`, when given, is polled once per
/// candidate; on expiry the build stops and sets `stopped_early`.
FilterUniverse BuildFilterUniverse(
    const SchemaGraph& graph, const ExampleTable& et,
    const std::vector<CandidateQuery>& candidates,
    const DeadlineToken* deadline = nullptr);

}  // namespace qbe

#endif  // QBE_CORE_FILTER_UNIVERSE_H_
