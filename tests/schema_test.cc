#include "schema/schema_graph.h"

#include <gtest/gtest.h>

#include "datagen/retailer.h"
#include "schema/join_tree.h"
#include "schema/join_tree_catalog.h"

namespace qbe {
namespace {

class SchemaTest : public ::testing::Test {
 protected:
  SchemaTest() : db_(MakeRetailerDatabase()), graph_(db_) {}

  int Rel(const std::string& name) const {
    return db_.RelationIdByName(name);
  }

  /// Builds a join tree from relation names, connecting them greedily via
  /// any schema edge between an in-tree and out-of-tree relation.
  JoinTree Tree(const std::vector<std::string>& names) const {
    JoinTree tree = JoinTree::Single(Rel(names[0]));
    std::vector<int> wanted;
    for (size_t i = 1; i < names.size(); ++i) wanted.push_back(Rel(names[i]));
    while (!wanted.empty()) {
      bool advanced = false;
      for (size_t i = 0; i < wanted.size(); ++i) {
        for (int e = 0; e < graph_.num_edges(); ++e) {
          const SchemaGraph::Edge& edge = graph_.edge(e);
          bool from_in = tree.verts.Test(edge.from);
          bool to_in = tree.verts.Test(edge.to);
          if (from_in == to_in) continue;
          int other = from_in ? edge.to : edge.from;
          if (other != wanted[i]) continue;
          tree = ExtendTree(tree, graph_, e);
          wanted.erase(wanted.begin() + i);
          advanced = true;
          break;
        }
        if (advanced) break;
      }
      if (!advanced) ADD_FAILURE() << "could not connect tree";
      if (!advanced) break;
    }
    return tree;
  }

  Database db_;
  SchemaGraph graph_;
};

TEST_F(SchemaTest, GraphShape) {
  EXPECT_EQ(graph_.num_vertices(), 7);
  EXPECT_EQ(graph_.num_edges(), 8);
  // Sales has 3 outgoing FK edges.
  EXPECT_EQ(graph_.IncidentEdges(Rel("Sales")).size(), 3u);
  // Device is referenced by Sales and Owner.
  EXPECT_EQ(graph_.IncidentEdges(Rel("Device")).size(), 2u);
}

TEST_F(SchemaTest, OtherEnd) {
  const SchemaGraph::Edge& e = graph_.edge(0);
  EXPECT_EQ(graph_.OtherEnd(0, e.from), e.to);
  EXPECT_EQ(graph_.OtherEnd(0, e.to), e.from);
}

TEST_F(SchemaTest, SingleVertexTree) {
  JoinTree t = JoinTree::Single(Rel("Sales"));
  EXPECT_EQ(t.NumVertices(), 1);
  EXPECT_EQ(t.NumEdges(), 0);
  const JoinTreeCatalog& catalog = graph_.catalog(1);
  EXPECT_EQ(catalog.leaves(catalog.Find(t)), t.verts);
}

TEST_F(SchemaTest, ExtendTreeAddsVertexAndEdge) {
  JoinTree t = JoinTree::Single(Rel("Sales"));
  JoinTree t2 = ExtendTree(t, graph_, 0);  // Sales->Customer
  EXPECT_EQ(t2.NumVertices(), 2);
  EXPECT_EQ(t2.NumEdges(), 1);
  EXPECT_TRUE(t2.verts.Test(Rel("Customer")));
  EXPECT_TRUE(t.IsSubtreeOf(t2));
  EXPECT_FALSE(t2.IsSubtreeOf(t));
}

TEST_F(SchemaTest, CatalogLeaves) {
  JoinTree cq1 = Tree({"Sales", "Customer", "Device", "App"});
  EXPECT_EQ(cq1.NumVertices(), 4);
  const JoinTreeCatalog& catalog = graph_.catalog(4);
  const RelationSet& leaves = catalog.leaves(catalog.Find(cq1));
  EXPECT_EQ(leaves.Count(), 3);  // Customer, Device, App; Sales has degree 3
  EXPECT_FALSE(leaves.Test(Rel("Sales")));
  EXPECT_TRUE(leaves.Test(Rel("Customer")));
}

TEST_F(SchemaTest, SubtreeRelationIsReflexiveAndAntisymmetricOnSize) {
  JoinTree a = Tree({"Owner", "Employee", "Device"});
  EXPECT_TRUE(a.IsSubtreeOf(a));
  JoinTree b = Tree({"Owner", "Employee", "Device", "App"});
  EXPECT_TRUE(a.IsSubtreeOf(b));
  EXPECT_FALSE(b.IsSubtreeOf(a));
  // Disjoint-rooted trees are unrelated.
  JoinTree c = Tree({"Sales", "Customer"});
  EXPECT_FALSE(c.IsSubtreeOf(b));
}

TEST_F(SchemaTest, CatalogSizeOne) {
  EXPECT_EQ(graph_.catalog(1).size(), 7);  // one per relation
}

TEST_F(SchemaTest, CatalogSizeTwoMatchesEdges) {
  // 7 singletons + 8 edges (all edges connect distinct relations).
  EXPECT_EQ(graph_.catalog(2).size(), 7 + 8);
}

TEST_F(SchemaTest, CatalogWalkRespectsSeeds) {
  RelationSet required;
  required.Set(Rel("ESR"));
  const JoinTreeCatalog& catalog = graph_.catalog(3);
  std::vector<int> trees = catalog.Walk(required);
  for (int t : trees) {
    EXPECT_TRUE(catalog.tree(t).verts.Test(Rel("ESR")));
  }
  // ESR alone; ESR+Employee; ESR+App; and all 3-vertex trees through ESR:
  // ESR-Employee-Owner, ESR-App-Sales, ESR-App-Owner, ESR-Employee-App(x via
  // ESR itself: Employee-ESR-App), ESR-Employee + ESR-App is that same tree.
  EXPECT_GE(trees.size(), 5u);
}

TEST_F(SchemaTest, CatalogNoDuplicates) {
  const JoinTreeCatalog& catalog = graph_.catalog(4);
  for (int i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(catalog.Find(catalog.tree(i)), i);
    for (int j = i + 1; j < catalog.size(); ++j) {
      EXPECT_FALSE(catalog.tree(i) == catalog.tree(j));
    }
  }
}

TEST_F(SchemaTest, CatalogAllAreTrees) {
  const JoinTreeCatalog& catalog = graph_.catalog(5);
  for (int i = 0; i < catalog.size(); ++i) {
    const JoinTree& t = catalog.tree(i);
    EXPECT_EQ(t.NumEdges(), t.NumVertices() - 1);
    EXPECT_LE(t.NumVertices(), 5);
  }
}

TEST_F(SchemaTest, CatalogSubtreesOfPath) {
  // A path of 3 vertices has 3 + 2 + 1 = 6 connected subtrees.
  JoinTree path = Tree({"Customer", "Sales", "Device"});
  const JoinTreeCatalog& catalog = graph_.catalog(3);
  const std::vector<int>& subs = catalog.subtrees(catalog.Find(path));
  EXPECT_EQ(subs.size(), 6u);
  for (int s : subs) EXPECT_TRUE(catalog.tree(s).IsSubtreeOf(path));
}

TEST_F(SchemaTest, CatalogSubtreesOfStar) {
  // Star with center Sales and 3 leaves: subtrees = 4 singles + 3 edges +
  // 3 two-edge + 1 full = 11.
  JoinTree star = Tree({"Sales", "Customer", "Device", "App"});
  const JoinTreeCatalog& catalog = graph_.catalog(4);
  EXPECT_EQ(catalog.subtrees(catalog.Find(star)).size(), 11u);
}

TEST_F(SchemaTest, JoinTreeToStringMentionsRelations) {
  JoinTree t = Tree({"Sales", "Customer"});
  std::string s = JoinTreeToString(t, graph_, db_);
  EXPECT_NE(s.find("Sales"), std::string::npos);
  EXPECT_NE(s.find("Customer"), std::string::npos);
}

}  // namespace
}  // namespace qbe
