// Live-ingestion subsystem tests (DESIGN.md §12): overlay reads, epoch
// pinning, WAL replay, validation, and compaction. The central invariant,
// asserted throughout: discovery over a pinned (base + delta) epoch is
// bit-identical to discovery over a from-scratch load of that epoch's
// merged data.

#include "ingest/live_db.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "datagen/retailer.h"
#include "ingest/db_view.h"
#include "ingest/wal.h"
#include "storage/database.h"

namespace qbe {
namespace {

class IngestTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    std::string path = testing::TempDir() + "/ingest_" + name;
    std::filesystem::remove(path);
    return path;
  }

  static int RelId(const DbVersion& v, const std::string& name) {
    int rel = v.base->RelationIdByName(name);
    EXPECT_GE(rel, 0) << name;
    return rel;
  }

  /// Discovery results in a comparable canonical order (sorted by SQL).
  struct CanonQuery {
    std::string sql;
    int matched_rows;
    double score;
  };
  static std::vector<CanonQuery> Canon(const DiscoveryResult& result) {
    std::vector<CanonQuery> out;
    out.reserve(result.queries.size());
    for (const DiscoveredQuery& q : result.queries) {
      out.push_back({q.sql, q.matched_rows, q.score});
    }
    std::sort(out.begin(), out.end(),
              [](const CanonQuery& a, const CanonQuery& b) {
                return a.sql < b.sql;
              });
    return out;
  }

  /// The invariant: discovery over the pinned epoch == discovery over a
  /// cold load of MaterializeDatabase(epoch), queries and counts alike.
  static void ExpectDiscoveryMatchesColdLoad(const DbVersion& v,
                                             const ExampleTable& et,
                                             const DiscoveryOptions& options =
                                                 {}) {
    DiscoveryResult live = DiscoverQueries(v.view(), et, options);
    Database cold = MaterializeDatabase(v.view());
    DiscoveryResult fresh = DiscoverQueries(cold, et, options);
    ASSERT_EQ(live.ok(), fresh.ok()) << live.error << " vs " << fresh.error;
    std::vector<CanonQuery> a = Canon(live);
    std::vector<CanonQuery> b = Canon(fresh);
    ASSERT_EQ(a.size(), b.size()) << "epoch " << v.epoch;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].sql, b[i].sql) << "epoch " << v.epoch;
      EXPECT_EQ(a[i].matched_rows, b[i].matched_rows) << a[i].sql;
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score) << a[i].sql;
    }
  }

  /// A mutation mix touching appends, tombstones and a PK reinsert:
  /// a new customer who buys a ThinkPad, a tombstoned base customer
  /// (Bob Evans), and Bob's CustId reused by a different customer.
  static void ApplyStandardMutations(LiveDatabase& live) {
    const DbVersion v = live.Pin();
    const int customer = RelId(v, "Customer");
    const int sales = RelId(v, "Sales");
    std::string error;
    ASSERT_TRUE(live.Append(
        customer, {int64_t{4}, std::string("Mike Tyson")}, &error))
        << error;
    // Sales(SId, CustId, DevId, AppId): new customer 4 buys device 1
    // (ThinkPad X1) with app 1 (Office 2013).
    ASSERT_TRUE(live.Append(
        sales, {int64_t{100}, int64_t{4}, int64_t{1}, int64_t{1}}, &error))
        << error;
    ASSERT_TRUE(live.Tombstone(customer, 2, &error)) << error;  // Bob Evans
    ASSERT_TRUE(live.Append(
        customer, {int64_t{3}, std::string("Bob Marley")}, &error))
        << error;  // reinsert of the tombstoned CustId 3
  }
};

TEST_F(IngestTest, OverlayReadsMatchMaterializedColdLoad) {
  LiveDatabase live(MakeRetailerDatabase());
  ApplyStandardMutations(live);
  const DbVersion v = live.Pin();
  const DbView view = v.view();
  ASSERT_FALSE(view.plain());

  Database cold = MaterializeDatabase(view);
  ASSERT_EQ(cold.num_relations(), view.num_relations());
  for (int r = 0; r < view.num_relations(); ++r) {
    const Relation& cold_rel = cold.relation(r);
    ASSERT_EQ(cold_rel.num_rows(), view.LiveRows(r)) << cold_rel.name();
    // Live rows in ascending global order must read back cell-identical.
    uint32_t cold_row = 0;
    for (uint32_t row = 0; row < view.TotalRows(r); ++row) {
      if (!view.IsLive(r, row)) continue;
      for (int c = 0; c < cold_rel.num_columns(); ++c) {
        if (cold_rel.columns()[c].type == ColumnType::kId) {
          EXPECT_EQ(view.IdAt(r, c, row), cold_rel.IdAt(c, cold_row));
        } else {
          EXPECT_EQ(view.TextAt(r, c, row), cold_rel.TextAt(c, cold_row));
        }
      }
      ++cold_row;
    }
    ASSERT_EQ(cold_row, cold_rel.num_rows());
  }

  // Tokens introduced only by appended rows resolve through the view.
  EXPECT_NE(view.FindToken("tyson"), TokenDict::kNoToken);
  EXPECT_NE(view.FindToken("marley"), TokenDict::kNoToken);
  EXPECT_EQ(view.FindToken("nosuchtokenanywhere"), TokenDict::kNoToken);
}

TEST_F(IngestTest, DiscoveryOverOverlayMatchesColdLoadAtEveryStep) {
  LiveDatabase live(MakeRetailerDatabase());
  const ExampleTable et = MakeFigure2ExampleTable();
  const DbVersion v0 = live.Pin();
  const int customer = RelId(v0, "Customer");
  const int sales = RelId(v0, "Sales");

  // Epoch 0: plain view, must equal the classic Database overload exactly.
  ExpectDiscoveryMatchesColdLoad(live.Pin(), et);

  std::string error;
  ASSERT_TRUE(live.Append(
      customer, {int64_t{4}, std::string("Mike Rivers")}, &error))
      << error;
  ExpectDiscoveryMatchesColdLoad(live.Pin(), et);

  // A Sales row joining the appended customer to ThinkPad + Office makes
  // customer 4 a genuine Figure-2 match through the overlay join edges.
  ASSERT_TRUE(live.Append(
      sales, {int64_t{100}, int64_t{4}, int64_t{1}, int64_t{1}}, &error))
      << error;
  ExpectDiscoveryMatchesColdLoad(live.Pin(), et);

  // Killing base customer Mike Jones (row 0) removes an original match.
  ASSERT_TRUE(live.Tombstone(customer, 0, &error)) << error;
  ExpectDiscoveryMatchesColdLoad(live.Pin(), et);

  // Reinserting the freed CustId 1 with a different name.
  ASSERT_TRUE(live.Append(
      customer, {int64_t{1}, std::string("Mike Stone Jr")}, &error))
      << error;
  ExpectDiscoveryMatchesColdLoad(live.Pin(), et);

  // The invariant holds across verification algorithms.
  for (Algorithm algo : {Algorithm::kVerifyAll, Algorithm::kWeave}) {
    DiscoveryOptions options;
    options.algorithm = algo;
    ExpectDiscoveryMatchesColdLoad(live.Pin(), et, options);
  }
}

TEST_F(IngestTest, PinnedEpochsAreImmutableUnderLaterMutations) {
  LiveDatabase live(MakeRetailerDatabase());
  const ExampleTable et = MakeFigure2ExampleTable();
  const DbVersion v0 = live.Pin();
  const int customer = RelId(v0, "Customer");
  const DiscoveryResult before = DiscoverQueries(v0.view(), et, {});

  ApplyStandardMutations(live);
  const DbVersion v1 = live.Pin();
  EXPECT_GT(v1.epoch, v0.epoch);

  // The old pin still reads epoch-0 data: three customers, Bob Evans alive.
  EXPECT_EQ(v0.view().LiveRows(customer), 3u);
  EXPECT_EQ(v0.view().TextAt(customer, 1, 2), "Bob Evans");
  EXPECT_EQ(v1.view().LiveRows(customer), 4u);

  // Discovery over the old pin is unchanged and still cold-load identical.
  const DiscoveryResult after = DiscoverQueries(v0.view(), et, {});
  EXPECT_EQ(Canon(before).size(), Canon(after).size());
  for (size_t i = 0; i < Canon(before).size(); ++i) {
    EXPECT_EQ(Canon(before)[i].sql, Canon(after)[i].sql);
  }
  ExpectDiscoveryMatchesColdLoad(v0, et);
  ExpectDiscoveryMatchesColdLoad(v1, et);
}

TEST_F(IngestTest, InvalidMutationsAreRejectedWithoutPublishing) {
  LiveDatabase live(MakeRetailerDatabase());
  const DbVersion v0 = live.Pin();
  const int customer = RelId(v0, "Customer");
  const uint64_t epoch0 = live.epoch();
  std::string error;

  EXPECT_FALSE(live.Append(99, {int64_t{1}}, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;

  EXPECT_FALSE(live.Append(customer, {int64_t{9}}, &error));  // arity
  EXPECT_NE(error.find("got 1 cells, want 2"), std::string::npos) << error;

  EXPECT_FALSE(live.Append(
      customer, {std::string("nine"), std::string("Kim")}, &error));
  EXPECT_NE(error.find("wants id, got text"), std::string::npos) << error;

  // CustId 2 (Mary Smith) is live: PK duplicate.
  EXPECT_FALSE(live.Append(
      customer, {int64_t{2}, std::string("Imposter")}, &error));
  EXPECT_NE(error.find("duplicate key 2"), std::string::npos) << error;

  EXPECT_FALSE(live.Tombstone(customer, 999, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;

  // AppendBatch is all-or-nothing: a duplicate inside the batch (two rows
  // claiming CustId 7) rejects the whole batch.
  EXPECT_FALSE(live.AppendBatch(
      customer,
      {{int64_t{7}, std::string("First")}, {int64_t{7}, std::string("Second")}},
      &error));
  EXPECT_NE(error.find("duplicate key 7"), std::string::npos) << error;

  // Nothing was published: same epoch, no overlay.
  EXPECT_EQ(live.epoch(), epoch0);
  EXPECT_EQ(live.delta_rows(), 0u);
  EXPECT_TRUE(live.Pin().view().plain());

  // Double tombstone: the second kill of the same row is rejected.
  ASSERT_TRUE(live.Tombstone(customer, 1, &error)) << error;
  EXPECT_FALSE(live.Tombstone(customer, 1, &error));
  EXPECT_NE(error.find("already dead"), std::string::npos) << error;

  // But the freed PK (CustId 2) can now be reinserted.
  EXPECT_TRUE(live.Append(
      customer, {int64_t{2}, std::string("Mary Shelley")}, &error))
      << error;
}

TEST_F(IngestTest, WalReplayRestoresTheOverlayExactly) {
  const std::string wal_path = TempPath("replay.qbel");
  const ExampleTable et = MakeFigure2ExampleTable();
  std::string error;
  {
    LiveDatabase live(MakeRetailerDatabase());
    ASSERT_TRUE(live.AttachWal(wal_path, &error)) << error;
    EXPECT_TRUE(live.has_wal());
    ApplyStandardMutations(live);
    ASSERT_TRUE(live.Flush(&error)) << error;
    EXPECT_EQ(live.delta_ops(), 4u);
  }

  LiveDatabase replayed(MakeRetailerDatabase());
  ASSERT_TRUE(replayed.AttachWal(wal_path, &error)) << error;
  EXPECT_EQ(replayed.delta_ops(), 4u);
  EXPECT_EQ(replayed.delta_rows(), 3u);
  EXPECT_EQ(replayed.tombstones(), 1u);

  // Same mutations applied without a WAL: overlay state must be identical.
  LiveDatabase direct(MakeRetailerDatabase());
  ApplyStandardMutations(direct);
  const DbVersion a = replayed.Pin();
  const DbVersion b = direct.Pin();
  ExpectDiscoveryMatchesColdLoad(a, et);
  DiscoveryResult ra = DiscoverQueries(a.view(), et, {});
  DiscoveryResult rb = DiscoverQueries(b.view(), et, {});
  std::vector<CanonQuery> ca = Canon(ra);
  std::vector<CanonQuery> cb = Canon(rb);
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].sql, cb[i].sql);
    EXPECT_EQ(ca[i].matched_rows, cb[i].matched_rows);
  }

  // The replayed instance keeps logging: mutate, reopen, both ops present.
  const int customer = RelId(a, "Customer");
  ASSERT_TRUE(replayed.Append(
      customer, {int64_t{8}, std::string("Grace Ives")}, &error))
      << error;
  ASSERT_TRUE(replayed.Flush(&error)) << error;
  WalReadResult log = ReadWal(wal_path);
  ASSERT_TRUE(log.ok) << log.error;
  EXPECT_EQ(log.records.size(), 5u);
}

TEST_F(IngestTest, WalTornTailIsTruncatedOnAttach) {
  const std::string wal_path = TempPath("torn.qbel");
  std::string error;
  {
    LiveDatabase live(MakeRetailerDatabase());
    ASSERT_TRUE(live.AttachWal(wal_path, &error)) << error;
    const int customer = RelId(live.Pin(), "Customer");
    ASSERT_TRUE(live.Append(
        customer, {int64_t{4}, std::string("Torn Tail")}, &error))
        << error;
    ASSERT_TRUE(live.Flush(&error)) << error;
  }
  {  // Simulate a crash mid-write: half a frame dangling off the end.
    std::ofstream out(wal_path, std::ios::binary | std::ios::app);
    out.write("\x20\x00\x00\x00\x01\x00", 6);
  }
  LiveDatabase live(MakeRetailerDatabase());
  ASSERT_TRUE(live.AttachWal(wal_path, &error)) << error;
  EXPECT_EQ(live.delta_ops(), 1u);  // the complete record survived

  // Attach healed the log in place: a fresh read sees no torn tail.
  WalReadResult log = ReadWal(wal_path);
  ASSERT_TRUE(log.ok) << log.error;
  EXPECT_FALSE(log.truncated_tail);
  EXPECT_EQ(log.records.size(), 1u);
}

TEST_F(IngestTest, CorruptOrInconsistentWalIsRefused) {
  const std::string wal_path = TempPath("corrupt.qbel");
  std::string error;
  {
    LiveDatabase live(MakeRetailerDatabase());
    ASSERT_TRUE(live.AttachWal(wal_path, &error)) << error;
    const int customer = RelId(live.Pin(), "Customer");
    ASSERT_TRUE(live.Append(
        customer, {int64_t{4}, std::string("Flip Target")}, &error))
        << error;
    ASSERT_TRUE(live.Flush(&error)) << error;
  }
  {  // Flip one payload byte of the record: checksum must catch it.
    std::fstream f(wal_path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    f.seekp(size - 12);  // inside the payload, before the 8-byte checksum
    char c;
    f.seekg(size - 12);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x01);
    f.seekp(size - 12);
    f.write(&c, 1);
  }
  {
    LiveDatabase live(MakeRetailerDatabase());
    EXPECT_FALSE(live.AttachWal(wal_path, &error));
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  }

  // A well-formed log that does not apply to the base (bad relation id)
  // is also refused, with the offending record named.
  const std::string bad_path = TempPath("badrel.qbel");
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(bad_path, &error)) << error;
    WalRecord record;
    record.kind = WalRecord::kTombstone;
    record.rel = 99;
    record.row = 0;
    ASSERT_TRUE(writer.Append(record, &error)) << error;
    ASSERT_TRUE(writer.Sync(&error)) << error;
  }
  {
    LiveDatabase live(MakeRetailerDatabase());
    EXPECT_FALSE(live.AttachWal(bad_path, &error));
    EXPECT_NE(error.find("record 0"), std::string::npos) << error;
    EXPECT_NE(error.find("relation id out of range"), std::string::npos)
        << error;
  }
}

TEST_F(IngestTest, CompactFoldsOverlayIntoFreshBase) {
  LiveDatabase live(MakeRetailerDatabase());
  const ExampleTable et = MakeFigure2ExampleTable();
  ApplyStandardMutations(live);
  const DbVersion before = live.Pin();
  const DiscoveryResult r_before =
      DiscoverQueries(before.view(), et, {});

  CompactionStats stats;
  std::string error;
  ASSERT_TRUE(live.Compact("", &error, &stats)) << error;
  EXPECT_EQ(stats.epoch, before.epoch + 1);
  EXPECT_EQ(stats.merged_appends, 3u);
  EXPECT_EQ(stats.merged_tombstones, 1u);
  EXPECT_EQ(stats.remaining_ops, 0u);
  EXPECT_FALSE(stats.snapshot_written);

  // The new epoch is a plain base again — no overlay on the read path.
  const DbVersion after = live.Pin();
  EXPECT_EQ(after.epoch, stats.epoch);
  EXPECT_TRUE(after.view().plain());
  EXPECT_EQ(live.delta_rows(), 0u);
  EXPECT_EQ(live.delta_ops(), 0u);

  // Discovery is unchanged by compaction, and the pre-compaction pin
  // still reads its own epoch.
  const DiscoveryResult r_after =
      DiscoverQueries(after.view(), et, {});
  std::vector<CanonQuery> a = Canon(r_before);
  std::vector<CanonQuery> b = Canon(r_after);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sql, b[i].sql);
    EXPECT_EQ(a[i].matched_rows, b[i].matched_rows);
  }
  EXPECT_FALSE(before.view().plain());
  ExpectDiscoveryMatchesColdLoad(before, et);

  // Compacting an empty overlay is a no-op.
  const uint64_t epoch = live.epoch();
  ASSERT_TRUE(live.Compact("", &error)) << error;
  EXPECT_EQ(live.epoch(), epoch);

  // Mutation continues on the compacted base with fresh global row ids.
  const int customer = RelId(after, "Customer");
  ASSERT_TRUE(live.Append(
      customer, {int64_t{9}, std::string("Post Compact")}, &error))
      << error;
  ExpectDiscoveryMatchesColdLoad(live.Pin(), et);
}

TEST_F(IngestTest, CompactWithWalWritesSnapshotAndTruncatesLog) {
  const std::string wal_path = TempPath("compact.qbel");
  const std::string snap_path = TempPath("compact.qbes");
  const ExampleTable et = MakeFigure2ExampleTable();
  std::string error;

  LiveDatabase live(MakeRetailerDatabase());
  ASSERT_TRUE(live.AttachWal(wal_path, &error)) << error;
  ApplyStandardMutations(live);

  // With a WAL attached, compaction must insist on a durable snapshot.
  EXPECT_FALSE(live.Compact("", &error));
  EXPECT_NE(error.find("snapshot"), std::string::npos) << error;

  CompactionStats stats;
  ASSERT_TRUE(live.Compact(snap_path, &error, &stats)) << error;
  EXPECT_TRUE(stats.snapshot_written);

  // The log was truncated: replaying it atop the snapshot is a no-op.
  WalReadResult log = ReadWal(wal_path);
  ASSERT_TRUE(log.ok) << log.error;
  EXPECT_TRUE(log.records.empty());

  // Cold-starting from the snapshot + WAL reproduces the live state —
  // the crash-recovery story end to end.
  std::optional<Database> reopened = Database::OpenSnapshot(snap_path, &error);
  ASSERT_TRUE(reopened.has_value()) << error;
  LiveDatabase restarted(std::move(*reopened));
  ASSERT_TRUE(restarted.AttachWal(wal_path, &error)) << error;
  const DbVersion a = live.Pin();
  const DbVersion b = restarted.Pin();
  DiscoveryResult ra = DiscoverQueries(a.view(), et, {});
  DiscoveryResult rb = DiscoverQueries(b.view(), et, {});
  std::vector<CanonQuery> ca = Canon(ra);
  std::vector<CanonQuery> cb = Canon(rb);
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].sql, cb[i].sql);
    EXPECT_EQ(ca[i].matched_rows, cb[i].matched_rows);
  }
}

}  // namespace
}  // namespace qbe
