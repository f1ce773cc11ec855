// Compaction with a tail (DESIGN.md §12): a fold merges the epoch it pinned
// with no lock held, so appends and tombstones commit while it runs. The
// test stops a fold between its pin and its install (through the private
// fold steps, which this fixture is a friend of), commits one mutation of
// each kind, installs, and checks that the rebased tail reads exactly like
// the last epoch before the install — live, in the WAL, and after a
// restart from the snapshot the fold wrote.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "datagen/retailer.h"
#include "ingest/db_view.h"
#include "ingest/live_db.h"
#include "ingest/wal.h"
#include "storage/database.h"
#include "test_util.h"

namespace qbe {

class CompactionFoldTest : public ::testing::Test {
 protected:
  using Fold = LiveDatabase::Fold;
  using MergedBase = LiveDatabase::MergedBase;

  static bool BeginFold(LiveDatabase& live, const std::string& snapshot_path,
                        Fold* fold, std::string* error) {
    return live.BeginFold(snapshot_path, fold, error);
  }
  static bool MergeFold(LiveDatabase& live, const Fold& fold,
                        const std::string& snapshot_path, MergedBase* merged,
                        std::string* error) {
    return live.MergeFold(fold, snapshot_path, merged, error);
  }
  static bool InstallFold(LiveDatabase& live, const Fold& fold,
                          MergedBase merged, const std::string& snapshot_path,
                          CompactionStats* stats, std::string* error) {
    return live.InstallFold(fold, std::move(merged), snapshot_path, stats,
                            error);
  }

  static std::string TempPath(const std::string& name) {
    std::string path = testing::TempDir() + "/fold_" + name;
    std::filesystem::remove(path);
    return path;
  }

  struct CanonQuery {
    std::string sql;
    int matched_rows;
    double score;

    friend bool operator==(const CanonQuery& a, const CanonQuery& b) {
      return a.sql == b.sql && a.matched_rows == b.matched_rows &&
             a.score == b.score;
    }
  };

  static std::vector<CanonQuery> Canon(const DiscoveryResult& result) {
    EXPECT_TRUE(result.ok()) << result.error;
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

  /// ETs over the rows the tail touches: the Figure 2 table, a reinserted
  /// key's reparented sale, and a customer appended during the fold.
  static std::vector<ExampleTable> Ets() {
    std::vector<ExampleTable> ets;
    ets.push_back(MakeFigure2ExampleTable());
    ExampleTable mary({"A", "B"});
    mary.AddRow({"Quinn", "iPad"});
    ets.push_back(mary);
    ExampleTable tail({"A", "B"});
    tail.AddRow({"Tail", "Office"});
    tail.AddRow({"Tyson", "ThinkPad"});
    ets.push_back(tail);
    return ets;
  }
};

namespace {

TEST_F(CompactionFoldTest, TailCommittedDuringTheMergeIsRebasedOntoTheNewBase) {
  const std::string wal_path = TempPath("tail.qbel");
  const std::string snap_path = TempPath("tail.qbes");
  std::string error;
  LiveDatabase live(MakeRetailerDatabase());
  ASSERT_TRUE(live.AttachWal(wal_path, &error)) << error;
  const DbVersion v0 = live.Pin();
  const int customer = v0.base->RelationIdByName("Customer");
  const int sales = v0.base->RelationIdByName("Sales");
  ASSERT_EQ(v0.base->relation(customer).num_rows(), 3u);  // CustId 1..3

  // Folded ops. Customer rows at the fold: 0 Mike Jones, 1 Mary Smith,
  // 2 Bob Evans (dead), 3 Mike Tyson, 4 Bob Marley.
  ASSERT_TRUE(live.Append(customer, {int64_t{4}, std::string("Mike Tyson")},
                          &error))
      << error;
  ASSERT_TRUE(live.Append(
      sales, {int64_t{100}, int64_t{4}, int64_t{1}, int64_t{1}}, &error))
      << error;
  ASSERT_TRUE(live.Tombstone(customer, 2, &error)) << error;
  ASSERT_TRUE(live.Append(customer, {int64_t{5}, std::string("Bob Marley")},
                          &error))
      << error;

  Fold fold;
  ASSERT_TRUE(BeginFold(live, snap_path, &fold, &error)) << error;
  ASSERT_EQ(fold.folded_ops, 4u);
  MergedBase merged;
  ASSERT_TRUE(MergeFold(live, fold, snap_path, &merged, &error)) << error;
  // The new base holds the four live customers; old rows 3, 4 → 2, 3.
  ASSERT_EQ(merged.base.relation(customer).num_rows(), 4u);

  // The tail: one mutation of each kind, committed mid-fold.
  // An append (customer 6, global row 5 before the install) and its sale.
  ASSERT_TRUE(live.Append(customer, {int64_t{6}, std::string("Mike Tail")},
                          &error))
      << error;
  ASSERT_TRUE(live.Append(
      sales, {int64_t{200}, int64_t{6}, int64_t{1}, int64_t{1}}, &error))
      << error;
  // A tombstone of a base row (Mary Smith).
  ASSERT_TRUE(live.Tombstone(customer, 1, &error)) << error;
  // A tombstone of a row appended before the fold (Bob Marley).
  ASSERT_TRUE(live.Tombstone(customer, 4, &error)) << error;
  // A tombstone of a row appended during the fold (global row 6).
  ASSERT_TRUE(live.Append(customer, {int64_t{7}, std::string("Tail Victim")},
                          &error))
      << error;
  ASSERT_TRUE(live.Tombstone(customer, 6, &error)) << error;
  // A PK reinsert of the key just tombstoned: Mary's sale (CustId 2, an
  // iPad) is reparented to the new row.
  ASSERT_TRUE(live.Append(customer, {int64_t{2}, std::string("Mary Quinn")},
                          &error))
      << error;
  constexpr size_t kTailOps = 7;
  ASSERT_EQ(live.delta_ops(), fold.folded_ops + kTailOps);

  const DbVersion before = live.Pin();
  CompactionStats stats;
  ASSERT_TRUE(
      InstallFold(live, fold, std::move(merged), snap_path, &stats, &error))
      << error;
  EXPECT_EQ(stats.epoch, before.epoch + 1);
  EXPECT_EQ(stats.merged_appends, 3u);
  EXPECT_EQ(stats.merged_tombstones, 1u);
  EXPECT_EQ(stats.remaining_ops, kTailOps);
  EXPECT_TRUE(stats.snapshot_written);
  EXPECT_EQ(live.delta_ops(), kTailOps);

  const DbVersion installed = live.Pin();
  ASSERT_EQ(installed.epoch, stats.epoch);
  ASSERT_FALSE(installed.view().plain());
  EXPECT_EQ(installed.base->relation(customer).num_rows(), 4u);

  // The installed epoch reads exactly like the last one before it.
  const std::vector<std::string> want = test::LiveRows(before.view());
  EXPECT_EQ(test::LiveRows(installed.view()), want);
  const Database cold = MaterializeDatabase(before.view());
  bool any_queries = false;
  for (const ExampleTable& et : Ets()) {
    const std::vector<CanonQuery> live_queries = Canon(
        DiscoverQueries(installed.view(), et, {}, installed.epoch));
    EXPECT_EQ(live_queries, Canon(DiscoverQueries(cold, et)));
    any_queries = any_queries || !live_queries.empty();
  }
  EXPECT_TRUE(any_queries);

  // The WAL holds only the tail, with its tombstones in the new id space:
  // base row 1 stays 1, pre-fold row 4 became 3, and the mid-fold row 6
  // is row 5 (4 new base rows + its offset 1 past the 5 folded ones).
  const WalReadResult log = ReadWal(wal_path);
  ASSERT_TRUE(log.ok) << log.error;
  ASSERT_EQ(log.records.size(), kTailOps);
  EXPECT_EQ(log.records[2].kind, WalRecord::kTombstone);
  EXPECT_EQ(log.records[2].row, 1u);
  EXPECT_EQ(log.records[3].row, 3u);
  EXPECT_EQ(log.records[5].row, 5u);

  // A restart from the files the fold left behind reproduces the rows.
  std::optional<Database> reopened = Database::OpenSnapshot(snap_path, &error);
  ASSERT_TRUE(reopened.has_value()) << error;
  LiveDatabase restarted(std::move(*reopened));
  ASSERT_TRUE(restarted.AttachWal(wal_path, &error)) << error;
  EXPECT_EQ(test::LiveRows(restarted.Pin().view()), want);

  // The next fold takes the rebased tail into a plain base.
  ASSERT_TRUE(live.Compact(snap_path, &error, &stats)) << error;
  EXPECT_EQ(stats.remaining_ops, 0u);
  EXPECT_TRUE(live.Pin().view().plain());
  EXPECT_EQ(test::LiveRows(live.Pin().view()), want);
}

}  // namespace
}  // namespace qbe
