// The eval cache's fixed-width keys and flat tables (DESIGN.md §8): a key
// identifies one logical existence query — join tree, the versions of its
// relations and predicate multiset — independently of views and
// dictionaries, and the
// open-addressing tables keep every entry findable through growth,
// removal and generation rotation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/candidate_gen.h"
#include "core/discovery.h"
#include "core/eval_cache.h"
#include "datagen/retailer.h"
#include "service/concurrent_eval_cache.h"
#include "shard/partition.h"
#include "shard_test_util.h"
#include "util/rng.h"

namespace qbe {
namespace {

/// EvalCacheBase that records every key looked up.
class RecordingEvalCache : public EvalCacheBase {
 public:
  std::optional<bool> Find(const EvalCacheKey& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    keys_.insert(key);
    return outcomes_.Find(key);
  }
  void Insert(const EvalCacheKey& key, bool outcome) override {
    std::lock_guard<std::mutex> lock(mu_);
    outcomes_.Insert(key, outcome);
  }
  void AddTraffic(int64_t hits, int64_t lookups) override {
    std::lock_guard<std::mutex> lock(mu_);
    hits_ += hits;
    lookups_ += lookups;
  }
  int64_t hits() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  int64_t lookups() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return lookups_;
  }
  size_t size() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return outcomes_.size();
  }
  std::set<EvalCacheKey> keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    return keys_;
  }

 private:
  mutable std::mutex mu_;
  OutcomeTable outcomes_;
  std::set<EvalCacheKey> keys_;
  int64_t hits_ = 0;
  int64_t lookups_ = 0;
};

/// A hand-built predicate: no token ids, no fingerprint.
PhrasePredicate Pred(ColumnRef column, std::vector<std::string> tokens) {
  PhrasePredicate pred;
  pred.column = column;
  pred.tokens = std::move(tokens);
  return pred;
}

ExampleTable Et(const std::vector<std::vector<std::string>>& rows) {
  ExampleTable et =
      ExampleTable::WithColumns(static_cast<int>(rows[0].size()));
  for (const std::vector<std::string>& row : rows) et.AddRow(row);
  return et;
}

/// The canonical text form of an existence query: tree ids with each
/// vertex's relation version, and the sorted "gid!tokens" / "gid:tokens"
/// predicate parts. Two queries are the same logical query exactly when
/// these strings are equal.
std::string CanonicalText(const Database& db, const JoinTree& tree,
                          const std::vector<PhrasePredicate>& predicates,
                          const std::vector<uint64_t>& versions) {
  std::string text;
  tree.verts.ForEach([&](int v) {
    text += 'v' + std::to_string(v) + '@' + std::to_string(versions[v]);
  });
  tree.edges.ForEach([&](int e) { text += 'e' + std::to_string(e); });
  std::vector<std::string> parts;
  for (const PhrasePredicate& pred : predicates) {
    std::string part = std::to_string(db.TextColumnGid(pred.column)) +
                       (pred.exact ? "!" : ":");
    for (const std::string& token : pred.tokens) part += token + ' ';
    parts.push_back(std::move(part));
  }
  std::sort(parts.begin(), parts.end());
  for (const std::string& part : parts) text += '|' + part;
  return text;
}

// --- keys ------------------------------------------------------------------

TEST(EvalCacheKeyTest, SameVerticesDifferentForeignKeyEdgesDiffer) {
  // Game references Team twice (home, away): two join trees over the same
  // two relations, told apart only by their edge.
  Database db;
  Relation team("Team", {{"team_id", ColumnType::kId},
                         {"tname", ColumnType::kText}});
  team.AppendRow({int64_t{1}, std::string("Lions")});
  Relation game("Game", {{"game_id", ColumnType::kId},
                         {"home_id", ColumnType::kId},
                         {"away_id", ColumnType::kId}});
  game.AppendRow({int64_t{1}, int64_t{1}, int64_t{1}});
  db.AddRelation(std::move(team));
  db.AddRelation(std::move(game));
  db.AddForeignKey("Game", "home_id", "Team", "team_id");
  db.AddForeignKey("Game", "away_id", "Team", "team_id");
  db.BuildIndexes();
  const SchemaGraph& graph = db.schema_graph();
  const int game_rel = db.RelationIdByName("Game");
  const int team_rel = db.RelationIdByName("Team");
  JoinTree home = ExtendTree(JoinTree::Single(game_rel), graph, 0);
  JoinTree away = ExtendTree(JoinTree::Single(game_rel), graph, 1);
  ASSERT_EQ(home.verts, away.verts);
  ASSERT_FALSE(home.edges == away.edges);

  PhrasePredicate lions = Pred(ColumnRef{team_rel, 1}, {"lions"});
  EXPECT_NE(MakeEvalCacheKey(db, home, {lions}, {}),
            MakeEvalCacheKey(db, away, {lions}, {}));
  EXPECT_EQ(MakeEvalCacheKey(db, home, {lions}, {}),
            MakeEvalCacheKey(db, home, {lions}, {}));
}

TEST(EvalCacheKeyTest, OnlyTheTreesRelationVersionsArePartOfTheKey) {
  Database db = MakeRetailerDatabase();
  const SchemaGraph& graph = db.schema_graph();
  const int customer = db.RelationIdByName("Customer");
  JoinTree tree = JoinTree::Single(customer);
  const int edge = graph.IncidentEdges(customer)[0];
  JoinTree joined = ExtendTree(tree, graph, edge);
  const ForeignKey& fk = db.foreign_key(edge);
  const int neighbour = fk.from_rel == customer ? fk.to_rel : fk.from_rel;
  int other = 0;
  while (joined.verts.Test(other)) ++other;
  ASSERT_LT(other, db.num_relations());
  PhrasePredicate mike = Pred(ColumnRef{customer, 1}, {"mike"});

  std::vector<uint64_t> versions(db.num_relations(), 0);
  const EvalCacheKey pristine = MakeEvalCacheKey(db, tree, {mike}, {});
  EXPECT_EQ(pristine, MakeEvalCacheKey(db, tree, {mike}, versions))
      << "an empty version list means every relation at 0";
  // A relation outside the tree does not move the key.
  versions[other] = 7;
  EXPECT_EQ(pristine, MakeEvalCacheKey(db, tree, {mike}, versions));
  EXPECT_EQ(MakeEvalCacheKey(db, joined, {mike}, {}),
            MakeEvalCacheKey(db, joined, {mike}, versions));
  // Every vertex's version does.
  versions[customer] = 7;
  const EvalCacheKey seven = MakeEvalCacheKey(db, tree, {mike}, versions);
  EXPECT_NE(pristine, seven);
  versions[customer] = 8;
  EXPECT_NE(seven, MakeEvalCacheKey(db, tree, {mike}, versions));
  versions[customer] = 7;
  EXPECT_EQ(seven, MakeEvalCacheKey(db, tree, {mike}, versions));
  const EvalCacheKey before = MakeEvalCacheKey(db, joined, {mike}, versions);
  versions[neighbour] += 1;
  EXPECT_NE(before, MakeEvalCacheKey(db, joined, {mike}, versions));
}

TEST(EvalCacheKeyTest, FingerprintSourceAndTokenIdsDoNotMatter) {
  // A predicate built from an ET carries the cell's fingerprint and ids; a
  // hand-built one carries neither. Both name one query.
  Database db = MakeRetailerDatabase();
  const int customer = db.RelationIdByName("Customer");
  JoinTree tree = JoinTree::Single(customer);
  ExampleTable et = Et({{"Mike Jones"}});
  PhrasePredicate from_et = Pred(ColumnRef{customer, 1}, et.CellTokens(0, 0));
  from_et.ids = {1, 2};
  from_et.fingerprint = et.CellFingerprint(0, 0);
  PhrasePredicate by_hand = Pred(ColumnRef{customer, 1}, {"mike", "jones"});
  EXPECT_EQ(MakeEvalCacheKey(db, tree, {from_et}, {}),
            MakeEvalCacheKey(db, tree, {by_hand}, {}));
  // Token order and boundaries are part of the phrase.
  PhrasePredicate swapped = Pred(ColumnRef{customer, 1}, {"jones", "mike"});
  PhrasePredicate joined = Pred(ColumnRef{customer, 1}, {"mikejones"});
  EXPECT_NE(MakeEvalCacheKey(db, tree, {by_hand}, {}),
            MakeEvalCacheKey(db, tree, {swapped}, {}));
  EXPECT_NE(MakeEvalCacheKey(db, tree, {by_hand}, {}),
            MakeEvalCacheKey(db, tree, {joined}, {}));
}

TEST(EvalCacheKeyTest, KeysMatchExactlyWhenCanonicalTextMatches) {
  // Every CQ-row existence query of a small workload, under two version
  // lists that differ in one relation: the map from canonical text to key
  // and its inverse must both be functions, so two queries share a cache
  // entry exactly when their text matches — also across the version lists
  // when the tree avoids the bumped relation.
  Database db = MakeShardableDatabase(12, 2, 1, 23);
  const SchemaGraph& graph = db.schema_graph();
  const std::vector<ExampleTable> ets = {
      Et({{"mike", "laptop"}, {"mary", ""}}),
      Et({{"mary", "tablet"}, {"mike", "laptop"}}),
      Et({{"berlin", "express"}, {"tokyo", ""}}),
      Et({{"mike", "berlin"}}),
  };
  std::vector<std::vector<uint64_t>> version_lists(
      2, std::vector<uint64_t>(db.num_relations(), 0));
  version_lists[1][0] = 3;
  std::map<std::string, EvalCacheKey> key_of;
  std::map<EvalCacheKey, std::string> text_of;
  size_t queries = 0;
  for (const ExampleTable& et : ets) {
    std::vector<CandidateQuery> candidates =
        GenerateCandidates(db, graph, et, CandidateGenOptions{});
    for (const CandidateQuery& q : candidates) {
      for (int r = 0; r < et.num_rows(); ++r) {
        std::vector<PhrasePredicate> preds = RowPredicates(q, et, r);
        for (const std::vector<uint64_t>& versions : version_lists) {
          const EvalCacheKey key =
              MakeEvalCacheKey(db, q.tree, preds, versions);
          const std::string text =
              CanonicalText(db, q.tree, preds, versions);
          auto [k, new_text] = key_of.emplace(text, key);
          EXPECT_EQ(k->second, key) << text;
          auto [t, new_key] = text_of.emplace(key, text);
          EXPECT_EQ(t->second, text);
          ++queries;
        }
      }
    }
  }
  EXPECT_GT(queries, key_of.size()) << "the workload must repeat queries";
  EXPECT_EQ(key_of.size(), text_of.size());
}

TEST(EvalCacheKeyTest, OneViewAndTwoViewsRecordIdenticalKeySets) {
  Database db = MakeShardableDatabase(12, 2, 1, 23);
  PartitionOptions partition;
  partition.num_shards = 2;
  partition.seed = 5;
  std::vector<Database> shards =
      SplitDatabase(db, ComputePartitionPlan(db, partition));
  std::vector<DbView> two_views(shards.begin(), shards.end());
  const std::vector<ExampleTable> ets = {
      Et({{"mike", "laptop"}, {"mary", "phone"}}),
      Et({{"berlin", "express"}, {"tokyo", ""}}),
  };
  for (const ExampleTable& et : ets) {
    RecordingEvalCache one_cache;
    RecordingEvalCache two_cache;
    DiscoveryOptions options;
    options.cache = &one_cache;
    DiscoveryResult one = DiscoverQueries(DbView(db), et, options);
    options.cache = &two_cache;
    DiscoveryResult two = DiscoverQueries(two_views, et, options);
    ASSERT_TRUE(one.ok()) << one.error;
    ASSERT_TRUE(two.ok()) << two.error;
    EXPECT_FALSE(one_cache.keys().empty());
    EXPECT_EQ(one_cache.keys(), two_cache.keys());
    EXPECT_EQ(one_cache.lookups(), one.counters.eval_cache_lookups);
    EXPECT_EQ(one_cache.lookups(), two_cache.lookups());
  }
}

// --- flat tables -------------------------------------------------------------

TEST(OutcomeTableTest, GrowsTakesAndStaysAtMostHalfFull) {
  constexpr int kKeys = 100000;
  Rng rng(20);
  std::vector<EvalCacheKey> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back({rng.Next(), rng.Next()});
  OutcomeTable table;
  EXPECT_EQ(table.bytes(), 0u);
  for (const EvalCacheKey& key : keys) {
    EXPECT_TRUE(table.Insert(key, (key.hi & 1) != 0));
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kKeys));
  EXPECT_GE(table.capacity(), 2 * table.size());
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
  for (const EvalCacheKey& key : keys) {
    EXPECT_FALSE(table.Insert(key, (key.hi & 1) == 0)) << "first insert wins";
  }
  // Take every third key; every other key must stay findable across the
  // backward shifts.
  for (int i = 0; i < kKeys; i += 3) {
    ASSERT_EQ(table.Take(keys[i]), (keys[i].hi & 1) != 0);
  }
  for (int i = 0; i < kKeys; ++i) {
    std::optional<bool> found = table.Find(keys[i]);
    if (i % 3 == 0) {
      EXPECT_FALSE(found.has_value()) << i;
    } else {
      ASSERT_TRUE(found.has_value()) << i;
      EXPECT_EQ(*found, (keys[i].hi & 1) != 0);
    }
  }
  EXPECT_FALSE(table.Find({rng.Next(), rng.Next()}).has_value());
}

TEST(OutcomeTableTest, CollidingHomesWrapAroundTheArray) {
  // Keys sharing the last slot as home form one probe run that wraps to
  // slot 0; removing from its middle must keep the rest reachable.
  OutcomeTable table;
  std::vector<EvalCacheKey> keys;
  for (uint64_t i = 0; i < 6; ++i) keys.push_back({i, 15});
  keys.push_back({100, 0});  // home 0, displaced by the wrapped run
  for (const EvalCacheKey& key : keys) table.Insert(key, key.hi % 2 == 0);
  ASSERT_EQ(table.capacity(), 16u);
  ASSERT_TRUE(table.Take(keys[1]).has_value());
  ASSERT_TRUE(table.Take(keys[4]).has_value());
  for (size_t i = 0; i < keys.size(); ++i) {
    std::optional<bool> found = table.Find(keys[i]);
    if (i == 1 || i == 4) {
      EXPECT_FALSE(found.has_value()) << i;
    } else {
      ASSERT_TRUE(found.has_value()) << i;
      EXPECT_EQ(*found, keys[i].hi % 2 == 0) << i;
    }
  }
  EXPECT_EQ(table.size(), keys.size() - 2);
}

TEST(ConcurrentEvalCacheFlatTest, HundredThousandKeysSurviveRotations) {
  constexpr int kKeys = 100000;
  Rng rng(7);
  std::vector<EvalCacheKey> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back({rng.Next(), rng.Next()});
  ConcurrentEvalCache cache;
  for (const EvalCacheKey& key : keys) cache.Insert(key, (key.lo & 1) != 0);
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
  const size_t bytes = cache.bytes();
  EXPECT_GE(bytes, 2 * kKeys * sizeof(EvalCacheKey));

  // Rotation demotes every entry; looking each one up moves it back.
  cache.StartGeneration();
  EXPECT_EQ(cache.bytes(), bytes);
  for (const EvalCacheKey& key : keys) {
    std::optional<bool> found = cache.Lookup(key);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, (key.lo & 1) != 0);
  }
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(cache.hits(), kKeys);
  EXPECT_EQ(cache.lookups(), kKeys);

  // Touched entries survive one more rotation; untouched ones go after two.
  cache.StartGeneration();
  for (int i = 0; i < kKeys; i += 2) {
    ASSERT_TRUE(cache.Find(keys[i]).has_value());
  }
  cache.StartGeneration();
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys / 2));
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(cache.Find(keys[i]).has_value(), i % 2 == 0) << i;
  }
  cache.StartGeneration();
  cache.StartGeneration();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

}  // namespace
}  // namespace qbe
