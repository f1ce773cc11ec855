#ifndef QBE_SCHEMA_JOIN_TREE_CATALOG_H_
#define QBE_SCHEMA_JOIN_TREE_CATALOG_H_

#include <unordered_map>
#include <vector>

#include "schema/join_tree.h"
#include "schema/schema_graph.h"

namespace qbe {

/// Every connected subtree of the schema graph with at most l vertices:
/// the join trees of candidate enumeration (§3.2) and of the filter
/// universe (§5.1), enumerated once per schema graph and l
/// (SchemaGraph::catalog) instead of once per request. Immutable once
/// built, so it is read without a lock.
///
/// Ids are dense and level-ordered: breadth-first from the singletons
/// (tree v is relation v), a tree's extensions taken in the order of its
/// vertices ascending, then SchemaGraph::IncidentEdges. So the trees with
/// at most k vertices are a prefix, the same in the catalog of every
/// l ≥ k, and Walk visits trees in the order FILTER's first-seen filter
/// ids have always followed.
class JoinTreeCatalog {
 public:
  JoinTreeCatalog(const SchemaGraph& graph, int max_vertices);

  int size() const { return static_cast<int>(trees_.size()); }
  const JoinTree& tree(int id) const { return trees_[id]; }

  /// The degree-≤1 relations of tree `id` (a singleton's vertex included).
  const RelationSet& leaves(int id) const { return leaves_[id]; }

  /// The connected subtrees of tree `id`, itself included, in the order
  /// Walk(tree.verts, &tree.edges) visits them.
  const std::vector<int>& subtrees(int id) const { return subtrees_[id]; }

  /// The id of `tree`, or -1 when it is not in the catalog.
  int Find(const JoinTree& tree) const;

  /// Breadth-first walk over ids from the singletons of `seeds`, following
  /// only extensions by an edge in `within` (every edge when null). Every
  /// tree it reaches contains a seed, and each is reached once.
  std::vector<int> Walk(const RelationSet& seeds,
                        const EdgeSet* within = nullptr) const;

 private:
  /// One way to grow a tree: by `edge`, into tree `tree`.
  struct Extension {
    int edge;
    int tree;
  };

  std::vector<JoinTree> trees_;
  std::vector<RelationSet> leaves_;
  std::vector<std::vector<Extension>> extensions_;  // none at l vertices
  std::vector<std::vector<int>> subtrees_;
  std::unordered_map<JoinTree, int, JoinTreeHash> ids_;
};

}  // namespace qbe

#endif  // QBE_SCHEMA_JOIN_TREE_CATALOG_H_
