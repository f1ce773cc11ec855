#include "schema/join_tree_catalog.h"

namespace qbe {

JoinTreeCatalog::JoinTreeCatalog(const SchemaGraph& graph,
                                 int max_vertices) {
  auto add = [&](const JoinTree& tree, const RelationSet& leaves) {
    auto [it, inserted] = ids_.try_emplace(tree, size());
    if (inserted) {
      trees_.push_back(tree);
      leaves_.push_back(leaves);
      extensions_.emplace_back();
    }
    return it->second;
  };
  for (int v = 0; v < graph.num_vertices() && max_vertices > 0; ++v)
    add(JoinTree::Single(v), JoinTree::Single(v).verts);
  for (int id = 0; id < size(); ++id) {
    const JoinTree tree = trees_[id];  // `add` may reallocate trees_
    if (tree.NumVertices() >= max_vertices) continue;
    tree.verts.ForEach([&](int v) {
      for (int e : graph.IncidentEdges(v)) {
        const int other = graph.OtherEnd(e, v);
        if (tree.verts.Test(other)) continue;  // a cycle or a self-loop
        // v gains an edge: it stays a leaf only if it was alone.
        RelationSet leaves = leaves_[id];
        if (tree.NumVertices() > 1) leaves.Reset(v);
        leaves.Set(other);
        const int extended = add(ExtendTree(tree, graph, e), leaves);
        extensions_[id].push_back(Extension{e, extended});
      }
    });
  }
  subtrees_.reserve(trees_.size());
  for (const JoinTree& tree : trees_) {
    subtrees_.push_back(Walk(tree.verts, &tree.edges));
  }
}

int JoinTreeCatalog::Find(const JoinTree& tree) const {
  auto it = ids_.find(tree);
  return it == ids_.end() ? -1 : it->second;
}

std::vector<int> JoinTreeCatalog::Walk(const RelationSet& seeds,
                                       const EdgeSet* within) const {
  std::vector<int> order;
  std::vector<bool> seen(trees_.size());
  seeds.ForEach([&](int v) {
    seen[v] = true;
    order.push_back(v);
  });
  for (size_t head = 0; head < order.size(); ++head) {
    for (const Extension& x : extensions_[order[head]]) {
      if (seen[x.tree] || (within != nullptr && !within->Test(x.edge))) {
        continue;
      }
      seen[x.tree] = true;
      order.push_back(x.tree);
    }
  }
  return order;
}

}  // namespace qbe
