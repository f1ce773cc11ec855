#include "core/filter_universe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "core/candidate_gen.h"
#include "datagen/cust_like.h"
#include "datagen/et_gen.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "test_util.h"

namespace qbe {
namespace {

bool Contains(std::span<const int> list, int value) {
  return std::find(list.begin(), list.end(), value) != list.end();
}

/// Exhaustive cross-check of the predicate classes against the pairwise
/// definitions: f1 is a member of a sub-class of class(f2) ⇔ class(f2) is a
/// super-class of class(f1) ⇔ IsSubFilterOf(f1, f2), for every ordered pair
/// (f1 = f2 included); and two filters share a class ⇔ they agree on tree,
/// row, constrained mask and φ on that mask.
void ExpectClassesMatchPairwisePredicate(const FilterUniverse& u) {
  ASSERT_EQ(static_cast<int>(u.class_of.size()), u.num_filters());
  ASSERT_EQ(static_cast<int>(u.sub_classes.size()), u.num_classes());
  ASSERT_EQ(static_cast<int>(u.super_classes.size()), u.num_classes());
  for (int c = 0; c < u.num_classes(); ++c) {
    const std::span<const int> members = u.class_members[c];
    ASSERT_FALSE(members.empty());
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    if (c > 0) {
      EXPECT_LT(u.class_members[c - 1][0], members[0]);
    }
    for (int f : members) EXPECT_EQ(u.class_of[f], c);
    const std::set<int> subs(u.sub_classes[c].begin(), u.sub_classes[c].end());
    const std::set<int> supers(u.super_classes[c].begin(),
                               u.super_classes[c].end());
    EXPECT_EQ(subs.size(), u.sub_classes[c].size()) << "duplicate sub-class";
    EXPECT_EQ(supers.size(), u.super_classes[c].size())
        << "duplicate super-class";
  }
  for (int f1 = 0; f1 < u.num_filters(); ++f1) {
    const Filter& a = u.filters[f1];
    const int c1 = u.class_of[f1];
    for (int f2 = 0; f2 < u.num_filters(); ++f2) {
      const Filter& b = u.filters[f2];
      const int c2 = u.class_of[f2];
      const bool is_sub = IsSubFilterOf(a, b);
      EXPECT_EQ(is_sub, Contains(u.sub_classes[c2], c1))
          << "filters " << f1 << ", " << f2;
      EXPECT_EQ(is_sub, Contains(u.super_classes[c1], c2))
          << "filters " << f1 << ", " << f2;
      bool same_key = a.row == b.row && a.tree == b.tree &&
                      a.constrained_mask == b.constrained_mask;
      for (uint32_t m = a.constrained_mask; same_key && m != 0; m &= m - 1) {
        const int c = std::countr_zero(m);
        same_key = a.phi[c] == b.phi[c];
      }
      EXPECT_EQ(same_key, c1 == c2) << "filters " << f1 << ", " << f2;
    }
  }
}

class FilterUniverseTest : public ::testing::Test {
 protected:
  FilterUniverseTest()
      : db_(MakeRetailerDatabase()),
        graph_(db_),
        et_(MakeFigure2ExampleTable()) {
    candidates_ = GenerateCandidates(db_, graph_, et_, {});
    universe_ = BuildFilterUniverse(graph_, et_, candidates_);
  }

  Database db_;
  SchemaGraph graph_;
  ExampleTable et_;
  std::vector<CandidateQuery> candidates_;
  FilterUniverse universe_;
};

TEST_F(FilterUniverseTest, EveryCandidateHasOneBasicFilterPerRow) {
  ASSERT_EQ(universe_.basic_filters_of_query.size(), candidates_.size());
  for (size_t q = 0; q < candidates_.size(); ++q) {
    EXPECT_EQ(universe_.basic_filters_of_query[q].size(),
              static_cast<size_t>(et_.num_rows()));
    for (int f : universe_.basic_filters_of_query[q]) {
      EXPECT_TRUE(universe_.filters[f].tree == candidates_[q].tree);
    }
  }
}

TEST_F(FilterUniverseTest, FiltersAreDeduplicated) {
  std::set<size_t> hashes;
  for (size_t i = 0; i < universe_.filters.size(); ++i) {
    for (size_t j = i + 1; j < universe_.filters.size(); ++j) {
      EXPECT_FALSE(universe_.filters[i] == universe_.filters[j]);
    }
  }
  // Sharing happened: strictly fewer filters than candidate×subtree×row
  // combinations (all 3 candidates share e.g. the Device singleton filter).
  size_t upper_bound = 0;
  for (size_t q = 0; q < candidates_.size(); ++q) {
    upper_bound += universe_.filters_of_query[q].size();
  }
  EXPECT_LT(universe_.filters.size(), upper_bound);
}

TEST_F(FilterUniverseTest, MembershipIsConsistent) {
  for (int f = 0; f < universe_.num_filters(); ++f) {
    for (int q : universe_.queries_of_filter[f]) {
      const std::span<const int> fq = universe_.filters_of_query[q];
      EXPECT_NE(std::find(fq.begin(), fq.end(), f), fq.end());
    }
  }
  for (size_t q = 0; q < candidates_.size(); ++q) {
    for (int f : universe_.filters_of_query[q]) {
      const std::span<const int> qf = universe_.queries_of_filter[f];
      EXPECT_NE(std::find(qf.begin(), qf.end(), static_cast<int>(q)),
                qf.end());
    }
  }
}

TEST_F(FilterUniverseTest, FilterTreesAreSubtreesOfTheirCandidates) {
  for (size_t q = 0; q < candidates_.size(); ++q) {
    for (int f : universe_.filters_of_query[q]) {
      EXPECT_TRUE(universe_.filters[f].tree.IsSubtreeOf(candidates_[q].tree));
    }
  }
}

TEST_F(FilterUniverseTest, DependencyListsMatchPairwisePredicate) {
  ExpectClassesMatchPairwisePredicate(universe_);
}

TEST_F(FilterUniverseTest, SharedSubtreeFilterServesMultipleCandidates) {
  // The Example 2 insight: some filter is contained in several candidates.
  bool found_shared = false;
  for (int f = 0; f < universe_.num_filters(); ++f) {
    if (universe_.queries_of_filter[f].size() >= 2) found_shared = true;
  }
  EXPECT_TRUE(found_shared);
}

TEST_F(FilterUniverseTest, EmptyCandidateSet) {
  FilterUniverse empty = BuildFilterUniverse(graph_, et_, {});
  EXPECT_EQ(empty.num_filters(), 0);
  EXPECT_EQ(empty.num_classes(), 0);
}

TEST_F(FilterUniverseTest, UnexpiredDeadlineBuildsTheWholeUniverse) {
  DeadlineToken deadline;
  FilterUniverse u = BuildFilterUniverse(graph_, et_, candidates_, &deadline);
  EXPECT_FALSE(u.stopped_early);
  EXPECT_EQ(u.num_filters(), universe_.num_filters());
  EXPECT_EQ(u.num_classes(), universe_.num_classes());
  EXPECT_FALSE(universe_.stopped_early);
}

// CUST-like ETs with empty cells: filters that differ only in φ on the
// empty cells of their row fall into one class, so multi-member classes
// (and their lattice edges) are exercised against the pairwise oracle.
TEST(FilterUniverseCustTest, ClassesWithEmptyCellsMatchPairwisePredicate) {
  CustConfig config;
  config.scale = 0.08;
  Database db = MakeCustLikeDatabase(config);
  SchemaGraph graph(db);
  Executor exec(db, graph);
  EtSource::Options options;
  options.min_matrix_rows = 8;
  EtSource source(db, graph, exec, 3, options);
  ASSERT_GT(source.num_matrices(), 0);
  EtParams params;  // s = 0.3: ⌊3·3·0.3⌋ = 2 empty cells per ET
  int multi_member_classes = 0;
  for (const ExampleTable& et : source.SampleMany(params, 6, 17)) {
    std::vector<CandidateQuery> candidates =
        GenerateCandidates(db, graph, et, {});
    if (candidates.empty()) continue;
    FilterUniverse u = BuildFilterUniverse(graph, et, candidates);
    ExpectClassesMatchPairwisePredicate(u);
    for (int c = 0; c < u.num_classes(); ++c) {
      if (u.class_members[c].size() > 1) ++multi_member_classes;
    }
  }
  EXPECT_GT(multi_member_classes, 0);
}

}  // namespace
}  // namespace qbe
