// The shared eval cache under live ingestion (DESIGN.md §8, §12): the
// ConcurrentEvalCache's two generations, keys that carry the versions of
// their tree's relations, and a DiscoveryService that rotates the
// generations on every fold (on every publish without background
// compaction). The invariant, asserted through the service with 1 and with
// 2 shards: every read served across appends, tombstones, a PK reinsert
// and compactions equals discovery over a cold load of the epoch it
// pinned, while the cache holds only recent outcomes — and a read whose
// join trees avoid every mutated relation is still served from the cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/discovery.h"
#include "ingest/live_db.h"
#include "service/concurrent_eval_cache.h"
#include "service/discovery_service.h"
#include "shard/partition.h"
#include "shard/shard_exec.h"
#include "shard_test_util.h"

namespace qbe {
namespace {

// --- ConcurrentEvalCache generations --------------------------------------

/// A cache key named by a string, for tests that only need distinct keys.
EvalCacheKey Key(const std::string& name) {
  Hasher128 hasher;
  hasher.AddBytes(name);
  return hasher.Finish();
}

TEST(EvalCacheGenerationsTest, HitInPreviousMovesIntoCurrent) {
  ConcurrentEvalCache cache;
  cache.Insert(Key("k"), true);
  cache.StartGeneration();  // k is now in previous
  ASSERT_TRUE(cache.Lookup(Key("k")).has_value());
  EXPECT_EQ(cache.size(), 1u) << "a promoted entry is moved, not copied";
  // The hit put k back in current, so it survives one more rotation.
  cache.StartGeneration();
  ASSERT_TRUE(cache.Lookup(Key("k")).has_value());
  EXPECT_TRUE(*cache.Lookup(Key("k")));
}

TEST(EvalCacheGenerationsTest, TwoRotationsDropAnUntouchedEntry) {
  ConcurrentEvalCache cache;
  cache.Insert(Key("touched"), true);
  cache.Insert(Key("untouched"), false);
  cache.StartGeneration();
  EXPECT_TRUE(cache.Lookup(Key("touched")).has_value());
  cache.StartGeneration();
  EXPECT_FALSE(cache.Lookup(Key("untouched")).has_value());
  EXPECT_TRUE(cache.Lookup(Key("touched")).has_value());
  cache.StartGeneration();
  cache.StartGeneration();
  EXPECT_FALSE(cache.Lookup(Key("touched")).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EvalCacheGenerationsTest, InsertOfAKeyInPreviousKeepsTheFirstOutcome) {
  ConcurrentEvalCache cache;
  cache.Insert(Key("k"), true);
  cache.StartGeneration();
  cache.Insert(Key("k"), false);
  EXPECT_EQ(cache.size(), 1u);
  cache.StartGeneration();  // the insert promoted k to current
  ASSERT_TRUE(cache.Lookup(Key("k")).has_value());
  EXPECT_TRUE(*cache.Lookup(Key("k")));
}

TEST(EvalCacheGenerationsTest, HitsAndLookupsStayCumulative) {
  ConcurrentEvalCache cache;
  cache.Insert(Key("a"), true);
  EXPECT_TRUE(cache.Lookup(Key("a")).has_value());
  cache.StartGeneration();
  cache.StartGeneration();
  EXPECT_FALSE(cache.Lookup(Key("a")).has_value());
  cache.Insert(Key("a"), true);
  EXPECT_TRUE(cache.Lookup(Key("a")).has_value());
  EXPECT_EQ(cache.lookups(), 3);
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 2.0 / 3.0);
}

TEST(EvalCacheGenerationsTest, SizeAndBytesShrinkAfterRotations) {
  ConcurrentEvalCache cache;
  EXPECT_EQ(cache.bytes(), 0u);
  for (int i = 0; i < 100; ++i) {
    cache.Insert(Key("short-" + std::to_string(i)), true);
  }
  const size_t short_bytes = cache.bytes();
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_GT(short_bytes, 100u * sizeof(std::string));

  cache.StartGeneration();
  for (int i = 0; i < 100; ++i) {
    cache.Insert(Key("a-much-longer-key-that-defeats-small-strings-" +
                     std::to_string(i)),
                 false);
  }
  EXPECT_EQ(cache.size(), 200u);  // both generations count
  const size_t both_bytes = cache.bytes();
  // Keys are fixed-width, so a key's string origin cannot change what it
  // costs; the second generation only adds its own tables.
  EXPECT_GT(both_bytes, short_bytes);

  cache.StartGeneration();  // frees the short keys
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.bytes(), both_bytes - short_bytes);
  cache.StartGeneration();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(EvalCacheGenerationsTest, RotationRacesLookupsAndInserts) {
  // Eight threads, each mixing lookups, inserts and rotations over one
  // shared key set. Outcomes are a function of the key, so any value read
  // back must be the one inserted, whatever rotations interleave. Run
  // under -DQBE_SANITIZE=thread.
  constexpr int kThreads = 8;
  constexpr int kKeys = 300;
  constexpr int kRounds = 4;
  ConcurrentEvalCache cache;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kKeys; ++i) {
          const int k = (i + 37 * t) % kKeys;
          const std::string key = "key-" + std::to_string(k);
          if (std::optional<bool> hit = cache.Lookup(Key(key))) {
            EXPECT_EQ(*hit, k % 3 == 0) << "thread " << t;
          } else {
            cache.Insert(Key(key), k % 3 == 0);
          }
          if ((i + t) % 97 == 0) cache.StartGeneration();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.lookups(), int64_t{kThreads} * kRounds * kKeys);
  EXPECT_LE(cache.size(), static_cast<size_t>(kKeys));
}

// --- DiscoveryService: the shared cache across publishes ------------------

constexpr uint64_t kDbSeed = 23;
constexpr uint64_t kShardSeed = 5;
// MakeShardableDatabase's relations and the Customer PK column.
constexpr int kCustomer = 0;
constexpr int kOrder = 1;
constexpr int kShipment = 2;
constexpr int kCustIdCol = 0;

Database SmallShardableDatabase() {
  return MakeShardableDatabase(12, 2, 1, kDbSeed);
}

/// A service over SmallShardableDatabase split `num_shards` ways.
/// `compact_after_ops` > 0 turns background compaction on, so that only
/// folds rotate the cache; the tests pick thresholds no run reaches and
/// fold with CompactNow.
std::unique_ptr<DiscoveryService> MakeService(int num_shards,
                                              size_t compact_after_ops = 0) {
  ServiceOptions options;
  options.num_workers = 2;
  options.shard_seed = kShardSeed;
  options.compact_after_ops = compact_after_ops;
  if (num_shards == 1) {
    return std::make_unique<DiscoveryService>(SmallShardableDatabase(),
                                              options);
  }
  Database db = SmallShardableDatabase();
  PartitionOptions partition;
  partition.num_shards = num_shards;
  partition.seed = kShardSeed;
  return std::make_unique<DiscoveryService>(
      SplitDatabase(db, ComputePartitionPlan(db, partition)), options);
}

ExampleTable Et(const std::vector<std::vector<std::string>>& rows) {
  ExampleTable et =
      ExampleTable::WithColumns(static_cast<int>(rows[0].size()));
  for (const std::vector<std::string>& row : rows) et.AddRow(row);
  return et;
}

struct CanonQuery {
  std::string sql;
  int matched_rows;
  double score;
  bool operator==(const CanonQuery&) const = default;
};

std::ostream& operator<<(std::ostream& os, const CanonQuery& q) {
  return os << q.sql << " [rows=" << q.matched_rows << " score=" << q.score
            << "]";
}

/// Discovered queries sorted by SQL, so ranking ties cannot reorder them.
std::vector<CanonQuery> Canon(const DiscoveryResult& result) {
  std::vector<CanonQuery> out;
  for (const DiscoveredQuery& q : result.queries) {
    out.push_back({q.sql, q.matched_rows, q.score});
  }
  std::sort(out.begin(), out.end(),
            [](const CanonQuery& a, const CanonQuery& b) {
              return a.sql < b.sql;
            });
  return out;
}

/// Tombstones the live Customer row with PK `cust_id`, wherever it lives.
void TombstoneCustomer(DiscoveryService& service, int64_t cust_id) {
  for (int s = 0; s < service.num_shards(); ++s) {
    const DbVersion version = service.live_shard(s).Pin();
    const DbView view = version.view();
    for (uint32_t row = 0; row < view.TotalRows(kCustomer); ++row) {
      if (view.IsLive(kCustomer, row) &&
          view.IdAt(kCustomer, kCustIdCol, row) == cust_id) {
        std::string error;
        ASSERT_TRUE(service.TombstoneAt(s, kCustomer, row, &error)) << error;
        return;
      }
    }
  }
  FAIL() << "no live customer " << cust_id;
}

/// Tombstones the live Customer row with PK `cust_id` in `live`.
void TombstoneCustomer(LiveDatabase& live, int64_t cust_id) {
  const DbVersion version = live.Pin();
  const DbView view = version.view();
  for (uint32_t row = 0; row < view.TotalRows(kCustomer); ++row) {
    if (view.IsLive(kCustomer, row) &&
        view.IdAt(kCustomer, kCustIdCol, row) == cust_id) {
      std::string error;
      ASSERT_TRUE(live.Tombstone(kCustomer, row, &error)) << error;
      return;
    }
  }
  FAIL() << "no live customer " << cust_id;
}

class SharedCacheIngestTest : public ::testing::TestWithParam<int> {};

TEST_P(SharedCacheIngestTest, ReadsAcrossPublishesMatchColdLoads) {
  const int num_shards = GetParam();
  std::unique_ptr<DiscoveryService> service = MakeService(num_shards);
  ASSERT_EQ(service->num_shards(), num_shards);
  // The same logical data, unsharded and uncached: the cold-load reference.
  LiveDatabase reference(SmallShardableDatabase());

  const Relation& customers = reference.Pin().base->relation(kCustomer);
  const std::string name0(customers.TextAt(1, 0));
  const std::string city0(customers.TextAt(2, 0));
  // The appended rows reuse words of other columns ("laptop" as a name,
  // "berlin" as an item, ...), so each publish changes the candidate sets.
  const std::vector<ExampleTable> workload = {
      Et({{"mike", "laptop"}}),
      Et({{"laptop", "berlin"}}),
      Et({{"mike", "express"}, {"mary", "gift"}}),
      Et({{"tokyo", "mary"}}),
      Et({{"berlin", "express", "mike"}}),
      Et({{name0, city0}}),
  };

  // Each read runs twice: the second pass is served from the outcomes the
  // first one cached under the same epoch.
  std::vector<std::vector<CanonQuery>> first_expected;
  bool results_changed = false;
  auto expect_reads_match = [&](const std::string& step) {
    const Database cold = MaterializeDatabase(reference.Pin().view());
    for (size_t i = 0; i < workload.size(); ++i) {
      const ExampleTable& et = workload[i];
      const DiscoveryResult expected = DiscoverQueries(cold, et);
      ASSERT_TRUE(expected.ok()) << expected.error;
      if (first_expected.size() <= i) {
        first_expected.push_back(Canon(expected));
      } else if (first_expected[i] != Canon(expected)) {
        results_changed = true;
      }
      for (int pass = 0; pass < 2; ++pass) {
        const int64_t hits_before = service->cache().hits();
        ServiceResponse response = service->Discover(et);
        ASSERT_TRUE(response.ok()) << step << ": " << response.result.error;
        EXPECT_EQ(Canon(response.result), Canon(expected))
            << step << ", pass " << pass;
        if (pass == 1 && response.result.num_candidates > 0) {
          EXPECT_GT(service->cache().hits(), hits_before) << step;
        }
      }
    }
  };
  auto append_both = [&](int rel, const std::vector<Value>& row) {
    std::string error;
    ASSERT_TRUE(service->Append(rel, row, &error)) << error;
    ASSERT_TRUE(reference.Append(rel, row, &error)) << error;
  };

  expect_reads_match("pristine");
  append_both(kCustomer, {int64_t{100}, std::string("laptop"),
                          std::string("express")});
  expect_reads_match("append customer");
  append_both(kOrder, {int64_t{500}, int64_t{100}, std::string("berlin")});
  expect_reads_match("append order");
  append_both(kShipment, {int64_t{900}, int64_t{500}, std::string("mike")});
  expect_reads_match("append shipment");

  TombstoneCustomer(*service, 0);
  std::string error;
  ASSERT_TRUE(reference.Tombstone(kCustomer, 0, &error)) << error;
  expect_reads_match("tombstone customer 0");

  // PK reinsert: customer 0's orders are still live, so in sharded mode
  // the new row routes to their shard.
  append_both(kCustomer, {int64_t{0}, std::string("tokyo"),
                          std::string("gift")});
  expect_reads_match("reinsert customer 0");

  ASSERT_TRUE(service->CompactNow(&error)) << error;
  expect_reads_match("compaction");
  append_both(kOrder, {int64_t{501}, int64_t{0}, std::string("mary")});
  expect_reads_match("append after compaction");
  EXPECT_TRUE(results_changed) << "the mutations must change some answer";

  // One rotation per publish: five appends, one tombstone, and one per
  // shard whose overlay the compaction folded.
  MetricsRegistry& metrics = service->metrics();
  const int64_t compactions = metrics.GetCounter("compactions").Value();
  EXPECT_GE(compactions, 1);
  EXPECT_EQ(metrics.GetCounter("eval_cache_generations").Value(),
            5 + 1 + compactions);
}

INSTANTIATE_TEST_SUITE_P(Shards, SharedCacheIngestTest,
                         ::testing::Values(1, 2));

TEST(SharedCacheIngestBoundTest, SizeStaysBoundedOverAppendReadRounds) {
  std::unique_ptr<DiscoveryService> service = MakeService(1);
  const std::vector<ExampleTable> reads = {
      Et({{"zoe", "quito"}}),
      Et({{"mike", "laptop"}, {"mary", "tablet"}}),
  };
  // Each round publishes one epoch and then reads under it. Keys carry the
  // epoch, so every cache insert is a miss of this round, and the cache
  // may hold only this round's and the previous round's inserts.
  int64_t previous_round = 0;
  int64_t total = 0;
  size_t peak = 0;
  for (int round = 0; round < 200; ++round) {
    std::string error;
    ASSERT_TRUE(service->Append(kCustomer,
                                {int64_t{1000 + round}, std::string("zoe"),
                                 std::string("quito")},
                                &error))
        << error;
    int64_t this_round = 0;
    for (const ExampleTable& et : reads) {
      ServiceResponse response = service->Discover(et);
      ASSERT_TRUE(response.ok()) << response.result.error;
      this_round += response.result.counters.verifications;
    }
    const size_t size = service->cache().size();
    ASSERT_LE(size, static_cast<size_t>(this_round + previous_round))
        << "round " << round;
    peak = std::max(peak, size);
    total += this_round;
    previous_round = this_round;
  }
  EXPECT_GT(total, int64_t{50} * static_cast<int64_t>(peak))
      << "the workload must insert far more than the cache keeps";

  const std::string dump = service->MetricsDump();
  EXPECT_NE(dump.find("counter   eval_cache_generations 200\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("gauge     eval_cache_bytes "), std::string::npos);
}

// --- per-relation validity ------------------------------------------------

/// A compaction threshold no test reaches: background compaction is on (so
/// appends do not rotate the cache) but only CompactNow folds.
constexpr size_t kUnreachedThreshold = 1000000;

TEST(RelationVersionKeyTest, PerShardVersionsAreATupleNotASum) {
  // Two requests can pin a relation's shards at interleaved moments: (5, 3)
  // and (4, 4) sum alike but hold different data.
  const Database db = SmallShardableDatabase();
  const SchemaGraph& graph = db.schema_graph();
  auto versions = [](uint64_t order_version) {
    return std::vector<uint64_t>{0, order_version, 0};
  };
  PhrasePredicate laptop;
  laptop.column = ColumnRef{kOrder, 2};
  laptop.tokens = {"laptop"};
  PhrasePredicate mike;
  mike.column = ColumnRef{kCustomer, 1};
  mike.tokens = {"mike"};
  // The key of a one-relation query when shard 0 pinned `s0` and shard 1
  // pinned `s1`.
  auto key = [&](const std::vector<uint64_t>& s0,
                 const std::vector<uint64_t>& s1,
                 const PhrasePredicate& pred) {
    const std::vector<DbView> views = {DbView(db, nullptr, s0.data()),
                                       DbView(db, nullptr, s1.data())};
    const ShardExecSet probes(views, graph);
    return MakeEvalCacheKey(db, JoinTree::Single(pred.column.rel), {pred},
                            probes.relation_versions());
  };
  const EvalCacheKey v53 = key(versions(5), versions(3), laptop);
  EXPECT_NE(v53, key(versions(4), versions(4), laptop));
  EXPECT_NE(v53, key(versions(3), versions(5), laptop));
  EXPECT_EQ(v53, key(versions(5), versions(3), laptop));
  // A tree over Customer alone is at (0, 0) in every case, which names the
  // same data as one unmutated view.
  const EvalCacheKey customer = key(versions(5), versions(3), mike);
  EXPECT_EQ(customer, key(versions(4), versions(4), mike));
  EXPECT_EQ(customer,
            MakeEvalCacheKey(db, JoinTree::Single(kCustomer), {mike}, {}));
}

class RelationValidityTest : public ::testing::TestWithParam<int> {};

TEST_P(RelationValidityTest, ReadAvoidingARelationHitsAfterAppendsToIt) {
  std::unique_ptr<DiscoveryService> service =
      MakeService(GetParam(), kUnreachedThreshold);
  LiveDatabase reference(SmallShardableDatabase());
  // Names and items: every candidate tree is over Customer and Order.
  const ExampleTable et = Et({{"mike", "laptop"}, {"mary", ""}});
  auto read = [&] {
    ServiceResponse response = service->Discover(et);
    EXPECT_TRUE(response.ok()) << response.result.error;
    const Database cold = MaterializeDatabase(reference.Pin().view());
    EXPECT_EQ(Canon(response.result), Canon(DiscoverQueries(cold, et)));
    return response.result.counters;
  };
  auto append_both = [&](int rel, const std::vector<Value>& row) {
    std::string error;
    ASSERT_TRUE(service->Append(rel, row, &error)) << error;
    ASSERT_TRUE(reference.Append(rel, row, &error)) << error;
  };

  ASSERT_GT(read().verifications, 0);
  EXPECT_EQ(read().verifications, 0) << "the repeat is served from the cache";
  // Shipments are in none of the read's trees.
  for (int64_t ship = 0; ship < 3; ++ship) {
    append_both(kShipment,
                {int64_t{900} + ship, ship, std::string("fragile")});
  }
  const VerificationCounters after_shipments = read();
  EXPECT_EQ(after_shipments.verifications, 0);
  EXPECT_EQ(after_shipments.eval_cache_hits,
            after_shipments.eval_cache_lookups);
  EXPECT_EQ(service->metrics().GetCounter("eval_cache_generations").Value(),
            0)
      << "appends do not rotate while background compaction is on";

  // An order is in every tree over Order: those outcomes are recomputed.
  append_both(kOrder, {int64_t{500}, int64_t{1}, std::string("laptop")});
  EXPECT_GT(read().verifications, 0);
  EXPECT_EQ(read().verifications, 0);
}

TEST_P(RelationValidityTest, ReadsMatchColdLoadsAcrossParentMutationsAndFolds) {
  std::unique_ptr<DiscoveryService> service =
      MakeService(GetParam(), kUnreachedThreshold);
  LiveDatabase reference(SmallShardableDatabase());
  const std::vector<ExampleTable> workload = {
      Et({{"zoe", "camera"}}),
      Et({{"zoe", "quito"}, {"mike", ""}}),
      Et({{"camera", "gift"}}),
      Et({{"camera"}, {"laptop"}}),
      Et({{"quito", "camera", "gift"}}),
  };
  // Each read runs twice: the second pass hits what the first cached.
  auto expect_reads_match = [&](const std::string& step) {
    const Database cold = MaterializeDatabase(reference.Pin().view());
    for (const ExampleTable& et : workload) {
      const DiscoveryResult expected = DiscoverQueries(cold, et);
      ASSERT_TRUE(expected.ok()) << expected.error;
      for (int pass = 0; pass < 2; ++pass) {
        const int64_t hits_before = service->cache().hits();
        ServiceResponse response = service->Discover(et);
        ASSERT_TRUE(response.ok()) << step << ": " << response.result.error;
        EXPECT_EQ(Canon(response.result), Canon(expected))
            << step << ", pass " << pass;
        if (pass == 1 && response.result.counters.eval_cache_lookups > 0) {
          EXPECT_GT(service->cache().hits(), hits_before) << step;
        }
      }
    }
  };
  auto append_both = [&](int rel, const std::vector<Value>& row) {
    std::string error;
    ASSERT_TRUE(service->Append(rel, row, &error)) << error;
    ASSERT_TRUE(reference.Append(rel, row, &error)) << error;
  };
  auto compact = [&] {
    std::string error;
    ASSERT_TRUE(service->CompactNow(&error)) << error;
  };

  expect_reads_match("pristine");
  // An order whose customer does not exist yet: its FK dangles, so no tree
  // over Customer and Order joins it.
  append_both(kOrder, {int64_t{600}, int64_t{200}, std::string("camera")});
  append_both(kShipment, {int64_t{950}, int64_t{600}, std::string("gift")});
  expect_reads_match("dangling order");
  // The parent append revalidates the child: only Customer's version moves,
  // and the Customer–Order outcomes change with it.
  append_both(kCustomer, {int64_t{200}, std::string("zoe"),
                          std::string("quito")});
  expect_reads_match("parent append");
  compact();
  expect_reads_match("fold after parent append");
  // The parent tombstone dangles the child again.
  TombstoneCustomer(*service, 200);
  TombstoneCustomer(reference, 200);
  expect_reads_match("parent tombstone");
  compact();
  expect_reads_match("fold after parent tombstone");

  // Only the two folds rotated the cache.
  MetricsRegistry& metrics = service->metrics();
  EXPECT_EQ(metrics.GetCounter("eval_cache_generations").Value(),
            metrics.GetCounter("compactions").Value());
  EXPECT_GE(metrics.GetCounter("compactions").Value(), 2);
}

INSTANTIATE_TEST_SUITE_P(Shards, RelationValidityTest,
                         ::testing::Values(1, 2));

TEST(SharedCacheIngestBoundTest, SizeStaysBoundedBetweenFolds) {
  // With background compaction on, appends do not rotate the cache and
  // only folds do. Every entry was inserted or hit since the fold before
  // last, and each insert or hit follows a lookup, so the cache holds at
  // most the lookups made since that fold.
  std::unique_ptr<DiscoveryService> service =
      MakeService(1, kUnreachedThreshold);
  const std::vector<ExampleTable> reads = {
      Et({{"zoe", "quito"}}),
      Et({{"mike", "laptop"}, {"mary", "tablet"}}),
  };
  constexpr int kRounds = 120;
  constexpr int kRoundsPerFold = 10;
  int64_t lookups_at_fold[2] = {0, 0};  // the last fold, the one before
  size_t peak = 0;
  int64_t folds = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::string error;
    ASSERT_TRUE(service->Append(kCustomer,
                                {int64_t{1000 + round}, std::string("zoe"),
                                 std::string("quito")},
                                &error))
        << error;
    for (const ExampleTable& et : reads) {
      ServiceResponse response = service->Discover(et);
      ASSERT_TRUE(response.ok()) << response.result.error;
    }
    const size_t size = service->cache().size();
    ASSERT_LE(size, static_cast<size_t>(service->cache().lookups() -
                                        lookups_at_fold[1]))
        << "round " << round;
    peak = std::max(peak, size);
    if (round % kRoundsPerFold == kRoundsPerFold - 1) {
      ASSERT_TRUE(service->CompactNow(&error)) << error;
      ++folds;
      lookups_at_fold[1] = lookups_at_fold[0];
      lookups_at_fold[0] = service->cache().lookups();
    }
  }
  EXPECT_GT(service->cache().lookups(), int64_t{4} * static_cast<int64_t>(peak))
      << "the workload must look up far more than the cache keeps";
  EXPECT_EQ(service->metrics().GetCounter("eval_cache_generations").Value(),
            folds);
}

}  // namespace
}  // namespace qbe
