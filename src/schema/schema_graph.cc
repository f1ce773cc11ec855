#include "schema/schema_graph.h"

#include <algorithm>

#include "schema/join_tree_catalog.h"
#include "util/check.h"

namespace qbe {

SchemaGraph::SchemaGraph(const Database& db)
    : num_vertices_(db.num_relations()),
      catalogs_(std::make_unique<CatalogSlot[]>(num_vertices_ + 1)) {
  QBE_CHECK_MSG(num_vertices_ <= RelationSet::kCapacity,
                "too many relations for RelationSet capacity");
  QBE_CHECK_MSG(static_cast<int>(db.foreign_keys().size()) <=
                    EdgeSet::kCapacity,
                "too many foreign keys for EdgeSet capacity");
  incident_.resize(num_vertices_);
  for (const ForeignKey& fk : db.foreign_keys()) {
    Edge e{fk.id, fk.from_rel, fk.to_rel};
    edges_.push_back(e);
    incident_[e.from].push_back(e.id);
    if (e.to != e.from) incident_[e.to].push_back(e.id);
  }
}

const JoinTreeCatalog& SchemaGraph::catalog(int max_vertices) const {
  QBE_CHECK_MSG(max_vertices >= 1, "a join tree has at least one relation");
  const int l = std::min(max_vertices, num_vertices_);
  CatalogSlot& slot = catalogs_[l];
  std::call_once(slot.once, [&] {
    slot.catalog = std::make_shared<const JoinTreeCatalog>(*this, l);
  });
  return *slot.catalog;
}

}  // namespace qbe
