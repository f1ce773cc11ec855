#include "schema/join_tree.h"

#include "util/check.h"

namespace qbe {

std::vector<int> JoinTree::Vertices() const {
  std::vector<int> out;
  verts.ForEach([&](int v) { out.push_back(v); });
  return out;
}

std::vector<int> JoinTree::EdgeIds() const {
  std::vector<int> out;
  edges.ForEach([&](int e) { out.push_back(e); });
  return out;
}

JoinTree ExtendTree(const JoinTree& tree, const SchemaGraph& graph,
                    int edge_id) {
  const SchemaGraph::Edge& e = graph.edge(edge_id);
  bool has_from = tree.verts.Test(e.from);
  bool has_to = tree.verts.Test(e.to);
  QBE_CHECK_MSG(has_from != has_to, "edge must reach exactly one new vertex");
  JoinTree out = tree;
  out.edges.Set(edge_id);
  out.verts.Set(has_from ? e.to : e.from);
  return out;
}

std::string JoinTreeToString(const JoinTree& tree, const SchemaGraph& graph,
                             const Database& db) {
  std::string out;
  if (tree.NumEdges() == 0) {
    tree.verts.ForEach(
        [&](int v) { out += db.relation(v).name(); });
    return out;
  }
  bool first = true;
  tree.edges.ForEach([&](int e) {
    if (!first) out += ", ";
    first = false;
    const SchemaGraph::Edge& edge = graph.edge(e);
    out += db.relation(edge.from).name();
    out += "->";
    out += db.relation(edge.to).name();
    out += "[" + db.foreign_key(e).label + "]";
  });
  return out;
}

}  // namespace qbe
