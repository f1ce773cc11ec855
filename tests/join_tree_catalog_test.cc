// The join-tree catalog against the per-request enumeration it replaced:
// the reference below is that enumeration, kept verbatim, and the catalog's
// walks must visit exactly its trees in exactly its order (FILTER's
// first-seen filter ids follow that order).

#include "schema/join_tree_catalog.h"

#include <gtest/gtest.h>

#include <thread>
#include <unordered_set>

#include "datagen/cust_like.h"
#include "datagen/imdb_like.h"
#include "datagen/retailer.h"
#include "util/rng.h"

namespace qbe {
namespace {

// --- reference: the enumeration candidate generation and the filter
// universe ran per request before the catalog ---------------------------

void GrowTrees(const SchemaGraph& graph, int max_vertices,
               std::vector<JoinTree>& work,
               std::unordered_set<JoinTree, JoinTreeHash>& seen,
               std::vector<JoinTree>& out) {
  size_t head = 0;
  while (head < work.size()) {
    JoinTree tree = work[head++];
    if (tree.NumVertices() >= max_vertices) continue;
    std::vector<int> vertices = tree.Vertices();
    for (int v : vertices) {
      for (int e : graph.IncidentEdges(v)) {
        const SchemaGraph::Edge& edge = graph.edge(e);
        int other = graph.OtherEnd(e, v);
        if (edge.from == edge.to) continue;
        if (tree.verts.Test(other)) continue;
        JoinTree extended = ExtendTree(tree, graph, e);
        if (seen.insert(extended).second) {
          out.push_back(extended);
          work.push_back(extended);
        }
      }
    }
  }
}

std::vector<JoinTree> EnumerateSubtrees(const SchemaGraph& graph,
                                        int max_vertices,
                                        const RelationSet* required) {
  std::vector<JoinTree> out;
  if (max_vertices <= 0) return out;
  std::vector<JoinTree> work;
  std::unordered_set<JoinTree, JoinTreeHash> seen;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    if (required != nullptr && !required->Test(v)) continue;
    JoinTree single = JoinTree::Single(v);
    if (seen.insert(single).second) {
      out.push_back(single);
      work.push_back(single);
    }
  }
  GrowTrees(graph, max_vertices, work, seen, out);
  return out;
}

std::vector<JoinTree> EnumerateSubtreesOfTree(const JoinTree& tree,
                                              const SchemaGraph& graph) {
  std::vector<JoinTree> out;
  std::vector<JoinTree> work;
  std::unordered_set<JoinTree, JoinTreeHash> seen;
  tree.verts.ForEach([&](int v) {
    JoinTree single = JoinTree::Single(v);
    if (seen.insert(single).second) {
      out.push_back(single);
      work.push_back(single);
    }
  });
  size_t head = 0;
  while (head < work.size()) {
    JoinTree current = work[head++];
    std::vector<int> vertices = current.Vertices();
    for (int v : vertices) {
      for (int e : graph.IncidentEdges(v)) {
        if (!tree.edges.Test(e)) continue;
        int other = graph.OtherEnd(e, v);
        if (current.verts.Test(other)) continue;
        JoinTree extended = ExtendTree(current, graph, e);
        if (seen.insert(extended).second) {
          out.push_back(extended);
          work.push_back(extended);
        }
      }
    }
  }
  return out;
}

// --- helpers --------------------------------------------------------------

std::vector<JoinTree> TreesOf(const JoinTreeCatalog& catalog,
                              const std::vector<int>& ids) {
  std::vector<JoinTree> trees;
  for (int id : ids) trees.push_back(catalog.tree(id));
  return trees;
}

/// Degree-≤1 vertices, counted edge by edge.
RelationSet BruteForceLeaves(const JoinTree& tree, const SchemaGraph& graph) {
  RelationSet leaves;
  tree.verts.ForEach([&](int v) {
    int degree = 0;
    for (int e : graph.IncidentEdges(v)) degree += tree.edges.Test(e);
    if (degree <= 1) leaves.Set(v);
  });
  return leaves;
}

Database MakeSchema(const std::string& name) {
  if (name == "imdb") {
    ImdbConfig config;
    config.scale = 0.05;
    return MakeImdbLikeDatabase(config);
  }
  if (name == "cust") {
    CustConfig config;
    config.scale = 0.05;
    return MakeCustLikeDatabase(config);
  }
  return MakeRetailerDatabase();
}

class JoinTreeCatalogTest : public ::testing::TestWithParam<std::string> {
 protected:
  JoinTreeCatalogTest() : db_(MakeSchema(GetParam())) {}

  const SchemaGraph& graph() const { return db_.schema_graph(); }

  Database db_;
};

TEST_P(JoinTreeCatalogTest, WalkFromHostingSetsMatchesEnumeration) {
  Rng rng(20140622);
  for (int l = 1; l <= 5; ++l) {
    const JoinTreeCatalog& catalog = graph().catalog(l);
    for (int trial = 0; trial < 60; ++trial) {
      const double density = trial % 3 == 0 ? 0.05 : trial % 3 == 1 ? 0.2 : 0.5;
      RelationSet hosting;
      for (int v = 0; v < graph().num_vertices(); ++v) {
        if (rng.NextBool(density)) hosting.Set(v);
      }
      ASSERT_EQ(TreesOf(catalog, catalog.Walk(hosting)),
                EnumerateSubtrees(graph(), l, &hosting))
          << "l = " << l << ", trial " << trial;
    }
  }
}

TEST_P(JoinTreeCatalogTest, IdsAreTheFullEnumerationInLevelOrder) {
  const JoinTreeCatalog& largest = graph().catalog(5);
  for (int l = 1; l <= 5; ++l) {
    const JoinTreeCatalog& catalog = graph().catalog(l);
    const std::vector<JoinTree> expected =
        EnumerateSubtrees(graph(), l, nullptr);
    ASSERT_EQ(catalog.size(), static_cast<int>(expected.size()));
    for (int id = 0; id < catalog.size(); ++id) {
      EXPECT_EQ(catalog.tree(id), expected[id]);
      EXPECT_EQ(catalog.Find(expected[id]), id);
      EXPECT_EQ(largest.tree(id), expected[id]);  // a prefix of larger l
    }
  }
}

TEST_P(JoinTreeCatalogTest, SubtreeListsMatchEnumerationOfEachTree) {
  const JoinTreeCatalog& catalog = graph().catalog(5);
  for (int id = 0; id < catalog.size(); ++id) {
    const JoinTree& tree = catalog.tree(id);
    ASSERT_EQ(TreesOf(catalog, catalog.subtrees(id)),
              EnumerateSubtreesOfTree(tree, graph()))
        << "tree " << id;
    EXPECT_EQ(catalog.leaves(id), BruteForceLeaves(tree, graph()));
  }
}

TEST_P(JoinTreeCatalogTest, FindRejectsTreesAboveL) {
  const JoinTreeCatalog& small = graph().catalog(2);
  const JoinTreeCatalog& large = graph().catalog(3);
  for (int id = 0; id < large.size(); ++id) {
    const JoinTree& tree = large.tree(id);
    EXPECT_EQ(small.Find(tree), tree.NumVertices() <= 2 ? id : -1);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemas, JoinTreeCatalogTest,
                         ::testing::Values("retailer", "imdb", "cust"));

TEST(JoinTreeCatalogConcurrencyTest, FirstUseFromManyThreadsBuildsOnce) {
  ImdbConfig config;
  config.scale = 0.05;
  const Database db = MakeImdbLikeDatabase(config);
  constexpr int kThreads = 8;
  std::vector<const JoinTreeCatalog*> seen(kThreads * 3);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 3; ++i) {
        const int l = 3 + (t + i) % 3;  // threads start on different l
        seen[t * 3 + (l - 3)] = &db.schema_graph().catalog(l);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int l = 3; l <= 5; ++l) {
    const JoinTreeCatalog* catalog = &db.schema_graph().catalog(l);
    EXPECT_EQ(catalog->size(),
              static_cast<int>(
                  EnumerateSubtrees(db.schema_graph(), l, nullptr).size()));
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t * 3 + (l - 3)], catalog);
    }
  }
}

}  // namespace
}  // namespace qbe
