#ifndef QBE_SCHEMA_SCHEMA_GRAPH_H_
#define QBE_SCHEMA_SCHEMA_GRAPH_H_

#include <memory>
#include <mutex>
#include <vector>

#include "storage/database.h"
#include "util/small_bitset.h"

namespace qbe {

class JoinTreeCatalog;

/// The directed schema graph G(V, E) of §2.1: vertices are relations, edges
/// are foreign-key references (possibly several between the same pair of
/// relations, distinguished by label). Join trees treat edges as undirected;
/// the stored direction (from = FK side, to = PK side) drives join
/// execution.
class SchemaGraph {
 public:
  struct Edge {
    int id;
    int from;  // FK-side relation
    int to;    // PK-side relation
  };

  /// Builds the schema graph from the database catalog.
  explicit SchemaGraph(const Database& db);

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const Edge& edge(int id) const { return edges_[id]; }

  /// Edges incident to `vertex` (in either direction).
  const std::vector<int>& IncidentEdges(int vertex) const {
    return incident_[vertex];
  }

  /// The endpoint of `edge_id` that is not `vertex`.
  int OtherEnd(int edge_id, int vertex) const {
    const Edge& e = edges_[edge_id];
    return e.from == vertex ? e.to : e.from;
  }

  /// The join trees with at most `max_vertices` (≥ 1) vertices, built on
  /// first use, once per l (values above num_vertices() share one), and
  /// immutable afterwards. Thread-safe.
  const JoinTreeCatalog& catalog(int max_vertices) const;

 private:
  struct CatalogSlot {
    std::once_flag once;
    std::shared_ptr<const JoinTreeCatalog> catalog;  // incomplete type here
  };

  int num_vertices_;
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> incident_;
  std::unique_ptr<CatalogSlot[]> catalogs_;  // by min(l, num_vertices_)
};

}  // namespace qbe

#endif  // QBE_SCHEMA_SCHEMA_GRAPH_H_
