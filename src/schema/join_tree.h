#ifndef QBE_SCHEMA_JOIN_TREE_H_
#define QBE_SCHEMA_JOIN_TREE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "schema/schema_graph.h"
#include "util/small_bitset.h"

namespace qbe {

/// A join tree J ⊆ G: a set of schema-graph vertices plus a set of edges
/// forming an undirected tree over them (Definition 3 condition i). Because
/// J is a *subgraph* of G, each relation appears at most once, which lets us
/// represent a tree as two small bitsets; subtree tests — the workhorse of
/// every dependency lemma — become subset tests.
struct JoinTree {
  RelationSet verts;
  EdgeSet edges;

  /// Single-relation tree.
  static JoinTree Single(int vertex) {
    JoinTree t;
    t.verts.Set(vertex);
    return t;
  }

  int NumVertices() const { return verts.Count(); }
  int NumEdges() const { return edges.Count(); }

  /// True iff this tree is a (connected) subtree of `other`. Both operands
  /// must be well-formed trees; for trees, vertex-subset + edge-subset is
  /// exactly the subtree relation.
  bool IsSubtreeOf(const JoinTree& other) const {
    return verts.IsSubsetOf(other.verts) && edges.IsSubsetOf(other.edges);
  }

  /// Vertices in ascending id order.
  std::vector<int> Vertices() const;
  /// Edge ids in ascending order.
  std::vector<int> EdgeIds() const;

  friend bool operator==(const JoinTree& a, const JoinTree& b) {
    return a.verts == b.verts && a.edges == b.edges;
  }

  size_t Hash() const { return verts.Hash() * 1000003 + edges.Hash(); }
};

struct JoinTreeHash {
  size_t operator()(const JoinTree& t) const { return t.Hash(); }
};

/// Extends `tree` with `edge_id`, which must have exactly one endpoint in
/// the tree; the other endpoint is added.
JoinTree ExtendTree(const JoinTree& tree, const SchemaGraph& graph,
                    int edge_id);

/// Debug rendering like "Sales-(0)-Customer, Sales-(1)-Device".
std::string JoinTreeToString(const JoinTree& tree, const SchemaGraph& graph,
                             const Database& db);

}  // namespace qbe

#endif  // QBE_SCHEMA_JOIN_TREE_H_
