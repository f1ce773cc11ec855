// Partitioner unit tests (DESIGN.md §15): FK co-location over every edge,
// full deterministic coverage, split integrity (rows, order, catalog),
// empty/skewed shards, append routing (constraints, conflicts, the
// orphan-children-then-parent sequence), and shardset manifest round-trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "datagen/retailer.h"
#include "ingest/db_view.h"
#include "ingest/live_db.h"
#include "shard/partition.h"
#include "snapshot/snapshot.h"
#include "shard_test_util.h"

namespace qbe {
namespace {

void ExpectFkCoLocation(const Database& db, const PartitionPlan& plan) {
  for (const ForeignKey& fk : db.foreign_keys()) {
    const uint32_t rows = db.relation(fk.from_rel).num_rows();
    for (uint32_t row = 0; row < rows; ++row) {
      const int32_t parent = db.ParentRowOf(fk.id, row);
      if (parent < 0) continue;
      EXPECT_EQ(plan.shard_of[fk.from_rel][row],
                plan.shard_of[fk.to_rel][parent])
          << "edge " << fk.label << " crosses shards at child row " << row;
    }
  }
}

TEST(PartitionPlanTest, CoversEveryRowExactlyOnceAndIsDeterministic) {
  Database db = MakeShardableDatabase(40, 3, 2, 7);
  for (PartitionMode mode : {PartitionMode::kHashPk, PartitionMode::kRowRange}) {
    PartitionOptions options;
    options.num_shards = 4;
    options.mode = mode;
    options.seed = 11;
    PartitionPlan plan = ComputePartitionPlan(db, options);
    ASSERT_EQ(static_cast<int>(plan.shard_of.size()), db.num_relations());
    uint64_t total = 0;
    for (int r = 0; r < db.num_relations(); ++r) {
      ASSERT_EQ(plan.shard_of[r].size(), db.relation(r).num_rows());
      for (uint32_t s : plan.shard_of[r]) {
        EXPECT_LT(s, 4u);
        ++total;
      }
    }
    EXPECT_EQ(total, 40u + 120u + 240u);
    uint64_t per_shard_total = 0;
    for (uint64_t n : plan.RowsPerShard()) per_shard_total += n;
    EXPECT_EQ(per_shard_total, total);

    PartitionPlan again = ComputePartitionPlan(db, options);
    EXPECT_EQ(plan.shard_of, again.shard_of);
  }
}

TEST(PartitionPlanTest, FkCoLocationHoldsOnEveryEdge) {
  Database chain = MakeShardableDatabase(40, 3, 2, 7);
  Database retailer =
      MakeScaledRetailerDatabase(30, 30, 12, 12, 120, 120, 50, 5);
  for (Database* db : {&chain, &retailer}) {
    for (PartitionMode mode :
         {PartitionMode::kHashPk, PartitionMode::kRowRange}) {
      PartitionOptions options;
      options.num_shards = 4;
      options.mode = mode;
      options.seed = 3;
      ExpectFkCoLocation(*db, ComputePartitionPlan(*db, options));
    }
  }
}

TEST(PartitionPlanTest, HashModeSpreadsComponentsAndSeedMatters) {
  Database db = MakeShardableDatabase(40, 3, 2, 7);
  PartitionOptions options;
  options.num_shards = 4;
  options.mode = PartitionMode::kHashPk;
  options.seed = 0;
  PartitionPlan plan = ComputePartitionPlan(db, options);
  int non_empty = 0;
  for (uint64_t n : plan.RowsPerShard()) non_empty += n > 0 ? 1 : 0;
  // 40 independent components hashed into 4 shards: all occupied.
  EXPECT_EQ(non_empty, 4);

  options.seed = 1;
  PartitionPlan reseeded = ComputePartitionPlan(db, options);
  EXPECT_NE(plan.shard_of, reseeded.shard_of)
      << "placement hash ignores the seed";
}

TEST(PartitionPlanTest, RowRangePacksComponentsInOrder) {
  Database db = MakeShardableDatabase(40, 3, 2, 7);
  PartitionOptions options;
  options.num_shards = 4;
  options.mode = PartitionMode::kRowRange;
  PartitionPlan plan = ComputePartitionPlan(db, options);
  // Components are packed in representative order, and every component's
  // representative is a Customer row (the minimum global id of its chain),
  // so customer shard ids must be non-decreasing.
  for (size_t c = 1; c < plan.shard_of[0].size(); ++c) {
    EXPECT_LE(plan.shard_of[0][c - 1], plan.shard_of[0][c]);
  }
  for (uint64_t n : plan.RowsPerShard()) EXPECT_GT(n, 0u);
}

TEST(PartitionPlanTest, SingleGiantComponentLeavesOtherShardsEmpty) {
  // Every order references customer 0: one indivisible component.
  Database db = MakeShardableDatabase(1, 50, 2, 7);
  PartitionOptions options;
  options.num_shards = 4;
  options.mode = PartitionMode::kHashPk;
  PartitionPlan plan = ComputePartitionPlan(db, options);
  int non_empty = 0;
  for (uint64_t n : plan.RowsPerShard()) non_empty += n > 0 ? 1 : 0;
  EXPECT_EQ(non_empty, 1);
  ExpectFkCoLocation(db, plan);
  // Splitting still yields four well-formed databases.
  std::vector<Database> shards = SplitDatabase(db, plan);
  ASSERT_EQ(shards.size(), 4u);
}

TEST(SplitDatabaseTest, PreservesRowsOrderAndCatalog) {
  Database db = MakeShardableDatabase(40, 3, 2, 7);
  PartitionOptions options;
  options.num_shards = 3;
  options.mode = PartitionMode::kHashPk;
  options.seed = 9;
  PartitionPlan plan = ComputePartitionPlan(db, options);
  std::vector<Database> shards = SplitDatabase(db, plan);
  ASSERT_EQ(shards.size(), 3u);

  for (const Database& shard : shards) {
    ASSERT_EQ(shard.num_relations(), db.num_relations());
    ASSERT_EQ(shard.foreign_keys().size(), db.foreign_keys().size());
    for (int r = 0; r < db.num_relations(); ++r) {
      EXPECT_EQ(shard.relation(r).name(), db.relation(r).name());
      EXPECT_EQ(shard.relation(r).num_columns(),
                db.relation(r).num_columns());
    }
  }

  // Walking original rows in order and appending to their assigned shard
  // must reproduce each shard relation cell for cell (the deterministic
  // shard-local order contract).
  for (int r = 0; r < db.num_relations(); ++r) {
    const Relation& source = db.relation(r);
    std::vector<uint32_t> next(3, 0);
    for (uint32_t row = 0; row < source.num_rows(); ++row) {
      const uint32_t s = plan.shard_of[r][row];
      const Relation& out = shards[s].relation(r);
      const uint32_t pos = next[s]++;
      ASSERT_LT(pos, out.num_rows());
      for (int c = 0; c < source.num_columns(); ++c) {
        if (source.columns()[c].type == ColumnType::kId) {
          EXPECT_EQ(out.IdAt(c, pos), source.IdAt(c, row));
        } else {
          EXPECT_EQ(out.TextAt(c, pos), source.TextAt(c, row));
        }
      }
    }
    uint64_t shard_rows = 0;
    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(next[s], shards[s].relation(r).num_rows());
      shard_rows += shards[s].relation(r).num_rows();
    }
    EXPECT_EQ(shard_rows, source.num_rows());
  }

  // Join edges resolve inside each shard exactly as often as in the
  // original: co-location loses no parent links.
  for (const ForeignKey& fk : db.foreign_keys()) {
    uint64_t original_links = 0;
    for (uint32_t row = 0; row < db.relation(fk.from_rel).num_rows(); ++row) {
      original_links += db.ParentRowOf(fk.id, row) >= 0 ? 1 : 0;
    }
    uint64_t shard_links = 0;
    for (const Database& shard : shards) {
      for (uint32_t row = 0; row < shard.relation(fk.from_rel).num_rows();
           ++row) {
        shard_links += shard.ParentRowOf(fk.id, row) >= 0 ? 1 : 0;
      }
    }
    EXPECT_EQ(shard_links, original_links) << "edge " << fk.label;
  }
}

class RouteAppendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Database db = MakeShardableDatabase(40, 3, 2, 7);
    PartitionOptions options;
    options.num_shards = 4;
    options.mode = PartitionMode::kHashPk;
    options.seed = kSeed;
    plan_ = ComputePartitionPlan(db, options);
    for (Database& shard : SplitDatabase(db, plan_)) {
      lives_.push_back(std::make_unique<LiveDatabase>(std::move(shard)));
    }
  }

  std::vector<DbView> Views() {
    versions_.clear();
    std::vector<DbView> views;
    for (const auto& live : lives_) {
      versions_.push_back(live->Pin());
      views.push_back(versions_.back().view());
    }
    return views;
  }

  static constexpr uint64_t kSeed = 13;
  PartitionPlan plan_;
  std::vector<std::unique_ptr<LiveDatabase>> lives_;
  std::vector<DbVersion> versions_;
};

TEST_F(RouteAppendTest, ChildFollowsItsParentShard) {
  // A new order for existing customer 17 must land in 17's shard.
  std::vector<DbView> views = Views();
  std::string error;
  int shard = RouteAppend(views, /*rel=*/1, {int64_t{9000}, int64_t{17},
                                            std::string("laptop")},
                          kSeed, &error);
  EXPECT_EQ(shard, static_cast<int>(plan_.shard_of[0][17])) << error;
}

TEST_F(RouteAppendTest, ConflictingParentsAreRejected) {
  // Find two customers placed in different shards, then forge a row in a
  // two-parent relation referencing both. The chain schema has no such
  // relation, so build the conflict through Shipment → Order: an order in
  // shard A plus a (would-be) child shipment also referencing... a single
  // FK cannot conflict, so instead conflict parent-vs-children: customer
  // row whose CustId already has live orders in one shard while a same-pk
  // customer parent is... — the realistic conflict is an order naming a
  // customer in shard A while orders with the same OrderId PK have
  // children in shard B. Simulate: append an orphan shipment for a new
  // order id, then route that order under a customer pinned elsewhere.
  std::vector<DbView> views = Views();
  std::string error;
  const int64_t new_order_id = 7777;
  int orphan_shard = RouteAppend(
      views, /*rel=*/2, {int64_t{9100}, new_order_id, std::string("gift")},
      kSeed, &error);
  ASSERT_GE(orphan_shard, 0) << error;
  ASSERT_TRUE(lives_[orphan_shard]->Append(
      2, {int64_t{9100}, new_order_id, std::string("gift")}, &error))
      << error;

  // A customer whose shard differs from the orphan's.
  int other_customer = -1;
  for (uint32_t c = 0; c < plan_.shard_of[0].size(); ++c) {
    if (static_cast<int>(plan_.shard_of[0][c]) != orphan_shard) {
      other_customer = static_cast<int>(c);
      break;
    }
  }
  ASSERT_GE(other_customer, 0);

  views = Views();
  int shard = RouteAppend(views, /*rel=*/1,
                          {new_order_id, int64_t{other_customer},
                           std::string("tablet")},
                          kSeed, &error);
  EXPECT_EQ(shard, -1);
  EXPECT_NE(error.find("cross-shard"), std::string::npos) << error;
}

TEST_F(RouteAppendTest, OrphanChildrenThenParentCoLocate) {
  // Shipments for a not-yet-appended order, then the order itself, then
  // the order's customer-constrained placement: the whole future component
  // must converge on one shard.
  std::vector<DbView> views = Views();
  std::string error;
  const int64_t order_id = 8888;
  int s1 = RouteAppend(views, 2, {int64_t{9200}, order_id,
                                  std::string("express")},
                       kSeed, &error);
  ASSERT_GE(s1, 0) << error;
  ASSERT_TRUE(lives_[s1]->Append(2, {int64_t{9200}, order_id,
                                     std::string("express")},
                                 &error))
      << error;

  // A second orphan shipment for the same order routes to the same shard
  // even before the order exists (consistent component-key hashing).
  views = Views();
  int s2 = RouteAppend(views, 2, {int64_t{9201}, order_id,
                                  std::string("fragile")},
                       kSeed, &error);
  EXPECT_EQ(s2, s1);

  // The parent order must follow its live children. Reference a customer
  // in the same shard so the constraints agree (the conflict case is
  // covered above); a fresh customer id exerts no parent constraint.
  const int64_t fresh_customer = 40404;
  views = Views();
  int s3 = RouteAppend(views, 1, {order_id, fresh_customer,
                                  std::string("camera")},
                       kSeed, &error);
  EXPECT_EQ(s3, s1) << error;
}

TEST_F(RouteAppendTest, UnconstrainedParentHashMatchesFutureChildren) {
  // A brand-new customer routes by its PK hash; a later order for it must
  // resolve to the same shard whether or not the customer row is live yet.
  std::vector<DbView> views = Views();
  std::string error;
  const int64_t cust_id = 50505;
  int parent_shard = RouteAppend(
      views, 0, {cust_id, std::string("alice"), std::string("lima")}, kSeed,
      &error);
  ASSERT_GE(parent_shard, 0) << error;
  // Unappended parent: the child hashes the same (relation, key) component
  // key the parent did.
  int child_shard = RouteAppend(
      views, 1, {int64_t{9300}, cust_id, std::string("phone")}, kSeed,
      &error);
  EXPECT_EQ(child_shard, parent_shard);

  ASSERT_TRUE(lives_[parent_shard]->Append(
      0, {cust_id, std::string("alice"), std::string("lima")}, &error))
      << error;
  views = Views();
  int constrained = RouteAppend(
      views, 1, {int64_t{9300}, cust_id, std::string("phone")}, kSeed,
      &error);
  EXPECT_EQ(constrained, parent_shard);
}

TEST(ShardSetTest, ManifestRoundTripsAndResolvesRelativePaths) {
  std::string dir = ::testing::TempDir();
  std::string path = dir + "/test.shardset";
  ShardSet set;
  set.mode = PartitionMode::kRowRange;
  set.seed = 42;
  set.paths = {"a.qbes", "/abs/b.qbes"};
  std::string error;
  ASSERT_TRUE(WriteShardSet(path, set, &error)) << error;

  std::optional<ShardSet> read = ReadShardSet(path, &error);
  ASSERT_TRUE(read.has_value()) << error;
  EXPECT_EQ(read->mode, PartitionMode::kRowRange);
  EXPECT_EQ(read->seed, 42u);
  ASSERT_EQ(read->num_shards(), 2);
  EXPECT_EQ(read->paths[0], dir + "/a.qbes");  // resolved against manifest
  EXPECT_EQ(read->paths[1], "/abs/b.qbes");    // absolute kept verbatim

  EXPECT_FALSE(ReadShardSet(dir + "/missing.shardset", &error).has_value());
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("not-a-shardset\n", f);
  std::fclose(f);
  EXPECT_FALSE(ReadShardSet(path, &error).has_value());
  EXPECT_NE(error.find("qbe-shardset-v1"), std::string::npos);
}

// A manifest naming shards of two different databases is refused with a
// typed error before any shard reaches discovery.
TEST(ShardSetTest, OpenRefusesShardsWithDifferentCatalogs) {
  const std::string dir = ::testing::TempDir();
  std::string error;
  const Database retailer = MakeRetailerDatabase();
  const Database shardable = MakeShardableDatabase(20, 2, 2, 1);
  ASSERT_TRUE(WriteSnapshot(retailer, dir + "/mixed_a.qbes", &error)) << error;
  ASSERT_TRUE(WriteSnapshot(shardable, dir + "/mixed_b.qbes", &error))
      << error;

  ShardSet matching;
  matching.paths = {dir + "/mixed_a.qbes", dir + "/mixed_a.qbes"};
  std::optional<std::vector<Database>> opened =
      OpenShardSet(matching, &error);
  ASSERT_TRUE(opened.has_value()) << error;
  EXPECT_EQ(opened->size(), 2u);

  ShardSet mixed;
  mixed.paths = {dir + "/mixed_a.qbes", dir + "/mixed_b.qbes"};
  error.clear();
  EXPECT_FALSE(OpenShardSet(mixed, &error).has_value());
  EXPECT_NE(error.find("catalog mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("mixed_b.qbes"), std::string::npos) << error;

  ShardSet missing;
  missing.paths = {dir + "/mixed_a.qbes", dir + "/absent.qbes"};
  EXPECT_FALSE(OpenShardSet(missing, &error).has_value());
  EXPECT_NE(error.find("absent.qbes"), std::string::npos) << error;
}

TEST(PartitionModeTest, NamesRoundTrip) {
  EXPECT_STREQ(PartitionModeName(PartitionMode::kHashPk), "hash");
  EXPECT_STREQ(PartitionModeName(PartitionMode::kRowRange), "range");
  EXPECT_EQ(ParsePartitionMode("hash"), PartitionMode::kHashPk);
  EXPECT_EQ(ParsePartitionMode("range"), PartitionMode::kRowRange);
  EXPECT_FALSE(ParsePartitionMode("bogus").has_value());
}

}  // namespace
}  // namespace qbe
