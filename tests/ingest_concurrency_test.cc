// Concurrency differential suite for the live-ingestion subsystem
// (DESIGN.md §12): a writer appends (and tombstones) while discoveries on
// three reader threads pin epochs, and compaction — a manual loop, the
// background Compactor, or both at once — races them, folding while the
// writer commits. Every pinned epoch's discovery output must be
// bit-identical to a from-scratch load of that epoch's materialized data —
// regardless of what published after the pin. Run under TSan in CI
// (label: slow, ingest).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/discovery.h"
#include "datagen/retailer.h"
#include "ingest/compactor.h"
#include "ingest/db_view.h"
#include "ingest/live_db.h"
#include "test_util.h"

namespace qbe {
namespace {

struct CanonQuery {
  std::string sql;
  int matched_rows;

  friend bool operator==(const CanonQuery& a, const CanonQuery& b) {
    return a.sql == b.sql && a.matched_rows == b.matched_rows;
  }
};

std::vector<CanonQuery> Canon(const DiscoveryResult& result) {
  std::vector<CanonQuery> out;
  out.reserve(result.queries.size());
  for (const DiscoveredQuery& q : result.queries) {
    out.push_back({q.sql, q.matched_rows});
  }
  std::sort(out.begin(), out.end(),
            [](const CanonQuery& a, const CanonQuery& b) {
              return a.sql < b.sql;
            });
  return out;
}

/// One discovery observed mid-flight: the pin (which keeps the epoch's
/// base + delta alive however many versions publish after it) plus what
/// discovery returned against it.
struct Sample {
  DbVersion pin;
  int reader;
  std::vector<CanonQuery> result;
};

constexpr int kReaders = 3;

/// The writer: appends customers (some wired into Sales so they join to
/// ThinkPad + Office and genuinely change the Figure-2 valid set), and
/// tombstones the newest live customer every third op. With
/// `racing_compaction` a tombstone may lose the race against a concurrent
/// renumbering Compact — that rejection is benign and skipped; without
/// compaction every mutation must be admitted. Stops after `ops` ops, or
/// earlier once `stop` (when given) is set.
void RunWriter(LiveDatabase& live, int customer_rel, int sales_rel, int ops,
               bool racing_compaction, std::atomic<bool>& failed,
               const std::atomic<bool>* stop = nullptr) {
  std::string error;
  for (int op = 0; op < ops && (stop == nullptr || !stop->load()); ++op) {
    bool ok = true;
    if (op % 3 == 2) {
      // Victim: the highest-id live customer at pin time. Compaction can
      // renumber between the pin and the Tombstone; the row id then either
      // names a different live row (still a valid kill) or misses.
      const DbVersion pin = live.Pin();
      const DbView view = pin.view();
      int64_t victim = -1;
      for (int64_t row = view.TotalRows(customer_rel) - 1; row >= 0; --row) {
        if (view.IsLive(customer_rel, static_cast<uint32_t>(row))) {
          victim = row;
          break;
        }
      }
      ASSERT_GE(victim, 0);  // the base rows alone guarantee a live row
      ok = live.Tombstone(customer_rel, static_cast<uint32_t>(victim), &error);
      if (!ok && racing_compaction) continue;  // lost the renumbering race
    } else {
      const int64_t cust_id = 1000 + op;
      ok = live.Append(customer_rel,
                       {cust_id, std::string("Mike Clone ") +
                                     std::to_string(op)},
                       &error);
      if (ok) {
        // Half the clones buy ThinkPad X1 + Office 2013 (device 1, app 1).
        if (op % 2 == 0) {
          ok = live.Append(sales_rel,
                           {int64_t{5000 + op}, cust_id, int64_t{1},
                            int64_t{1}},
                           &error);
        }
      }
    }
    if (!ok) {
      ADD_FAILURE() << "writer op " << op << ": " << error;
      failed.store(true);
      return;
    }
    std::this_thread::yield();
  }
}

/// Reader number `reader`: repeatedly pin the current epoch, discover, and
/// record (pin, result) for post-hoc verification.
void RunReader(LiveDatabase& live, const ExampleTable& et, int reader,
               int iterations, std::mutex& mu, std::vector<Sample>& samples) {
  for (int i = 0; i < iterations; ++i) {
    DbVersion pin = live.Pin();
    DiscoveryResult result = DiscoverQueries(pin.view(), et, {}, pin.epoch);
    ASSERT_TRUE(result.ok()) << result.error;
    std::lock_guard<std::mutex> lock(mu);
    samples.push_back({std::move(pin), reader, Canon(result)});
  }
}

/// Like RunReader, but keeps sampling until `done` is set; only the first
/// `keep` samples are recorded (the rest still race the writer).
void RunReaderUntil(LiveDatabase& live, const ExampleTable& et, int reader,
                    const std::atomic<bool>& done, size_t keep,
                    std::mutex& mu, std::vector<Sample>& samples) {
  for (size_t i = 0; !done.load(); ++i) {
    DbVersion pin = live.Pin();
    DiscoveryResult result = DiscoverQueries(pin.view(), et, {}, pin.epoch);
    ASSERT_TRUE(result.ok()) << result.error;
    if (i >= keep) continue;
    std::lock_guard<std::mutex> lock(mu);
    samples.push_back({std::move(pin), reader, Canon(result)});
  }
}

/// Post-hoc: every sample must match a cold load of its pinned epoch, and
/// samples of the same epoch must agree with each other across readers.
void VerifySamples(const ExampleTable& et, std::vector<Sample>& samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.pin.epoch < b.pin.epoch;
            });
  size_t cold_loads = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (i > 0 && samples[i - 1].pin.epoch == s.pin.epoch) {
      // Same epoch already verified against its cold load: cross-check
      // the two observations directly (cheap).
      EXPECT_EQ(samples[i - 1].result, s.result)
          << "epoch " << s.pin.epoch << ": readers " << samples[i - 1].reader
          << " and " << s.reader << " disagree";
      continue;
    }
    ++cold_loads;
    Database cold = MaterializeDatabase(s.pin.view());
    std::vector<CanonQuery> fresh = Canon(DiscoverQueries(cold, et));
    EXPECT_EQ(s.result, fresh)
        << "epoch " << s.pin.epoch << " on reader " << s.reader
        << " diverges from its from-scratch load";
  }
  // The run must have actually observed concurrent epochs.
  EXPECT_GT(cold_loads, 1u);
}

class IngestConcurrencyTest : public ::testing::Test {};

TEST_F(IngestConcurrencyTest, DiscoveryPinsBitIdenticalEpochsDuringAppends) {
  LiveDatabase live(MakeRetailerDatabase());
  const ExampleTable et = MakeFigure2ExampleTable();
  const DbVersion v0 = live.Pin();
  const int customer = v0.base->RelationIdByName("Customer");
  const int sales = v0.base->RelationIdByName("Sales");
  ASSERT_GE(customer, 0);
  ASSERT_GE(sales, 0);

  std::atomic<bool> failed{false};
  std::mutex mu;
  std::vector<Sample> samples;
  std::thread writer(
      [&] { RunWriter(live, customer, sales, 45, false, failed); });
  std::vector<std::thread> readers;
  for (int reader = 0; reader < kReaders; ++reader) {
    readers.emplace_back(
        [&, reader] { RunReader(live, et, reader, 8, mu, samples); });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load());

  // One final sample of the settled end state from each reader.
  for (int reader = 0; reader < kReaders; ++reader) {
    RunReader(live, et, reader, 1, mu, samples);
  }
  VerifySamples(et, samples);
}

TEST_F(IngestConcurrencyTest, CompactionRacesDiscoveryWithoutTearingPins) {
  LiveDatabase live(MakeRetailerDatabase());
  const ExampleTable et = MakeFigure2ExampleTable();
  const DbVersion v0 = live.Pin();
  const int customer = v0.base->RelationIdByName("Customer");
  const int sales = v0.base->RelationIdByName("Sales");

  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::mutex mu;
  std::vector<Sample> samples;
  std::thread writer([&] {
    RunWriter(live, customer, sales, 45, true, failed);
    done.store(true);
  });
  // The compactor repeatedly folds whatever overlay exists mid-stream.
  // Old pins must stay readable: their shared_ptrs outlive the swap.
  std::thread compactor([&] {
    std::string error;
    int compactions = 0;
    while (!done.load()) {
      if (!live.Compact("", &error)) {
        ADD_FAILURE() << "compaction: " << error;
        failed.store(true);
        return;
      }
      ++compactions;
      std::this_thread::yield();
    }
    EXPECT_GT(compactions, 0);
  });
  std::vector<std::thread> readers;
  for (int reader = 0; reader < kReaders; ++reader) {
    readers.emplace_back(
        [&, reader] { RunReader(live, et, reader, 8, mu, samples); });
  }
  writer.join();
  compactor.join();
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load());

  for (int reader = 0; reader < kReaders; ++reader) {
    RunReader(live, et, reader, 1, mu, samples);
  }
  VerifySamples(et, samples);

  // After the dust settles: one more compaction, then the end state still
  // equals its cold load.
  std::string error;
  ASSERT_TRUE(live.Compact("", &error)) << error;
  DbVersion end = live.Pin();
  EXPECT_TRUE(end.view().plain());
  std::vector<CanonQuery> a =
      Canon(DiscoverQueries(end.view(), et, {}, end.epoch));
  Database cold = MaterializeDatabase(end.view());
  std::vector<CanonQuery> b = Canon(DiscoverQueries(cold, et));
  EXPECT_EQ(a, b);
}

TEST_F(IngestConcurrencyTest, BackgroundFoldsRebaseTailsWhileReadersPin) {
  LiveDatabase live(MakeRetailerDatabase());
  const ExampleTable et = MakeFigure2ExampleTable();
  const DbVersion v0 = live.Pin();
  const int customer = v0.base->RelationIdByName("Customer");
  const int sales = v0.base->RelationIdByName("Sales");

  // The writer runs until some fold has installed a non-empty tail: ops
  // committed between the fold's pin and its install. Bounded in ops, so
  // a run that never overlaps fails instead of hanging.
  std::atomic<bool> tail_seen{false};
  std::atomic<int> folds{0};
  Compactor::Options options;
  options.ops_threshold = 4;
  options.poll_interval = std::chrono::milliseconds(1);
  options.on_compaction = [&](const CompactionStats& stats) {
    folds.fetch_add(1);
    if (stats.remaining_ops > 0) tail_seen.store(true);
  };
  options.on_error = [](const std::string& error) {
    ADD_FAILURE() << "background compaction: " << error;
  };
  Compactor compactor(&live, options);

  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::mutex mu;
  std::vector<Sample> samples;
  std::thread writer([&] {
    RunWriter(live, customer, sales, 20000, true, failed, &tail_seen);
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int reader = 0; reader < kReaders; ++reader) {
    readers.emplace_back([&, reader] {
      RunReaderUntil(live, et, reader, done, 12, mu, samples);
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  compactor.Stop();
  ASSERT_FALSE(failed.load());
  EXPECT_TRUE(tail_seen.load()) << folds.load() << " folds, none with a tail";

  for (int reader = 0; reader < kReaders; ++reader) {
    RunReader(live, et, reader, 1, mu, samples);
  }
  VerifySamples(et, samples);
}

// CompactNow and the background Compactor both end in LiveDatabase::Compact;
// its fold lock runs them one after another. A manual compaction loop races
// the Compactor and an append-only writer: every fold publishes its own,
// strictly later epoch, pins never go back in time, and the end state holds
// exactly the rows of an uncompacted replay of the same appends.
TEST_F(IngestConcurrencyTest, ManualCompactionRacesBackgroundCompactor) {
  LiveDatabase live(MakeRetailerDatabase());
  LiveDatabase replay(MakeRetailerDatabase());
  const ExampleTable et = MakeFigure2ExampleTable();
  const DbVersion v0 = live.Pin();
  const int customer = v0.base->RelationIdByName("Customer");
  const int sales = v0.base->RelationIdByName("Sales");

  std::mutex epochs_mu;
  std::vector<uint64_t> background_epochs;
  Compactor::Options options;
  options.ops_threshold = 1;
  options.poll_interval = std::chrono::milliseconds(1);
  options.on_compaction = [&](const CompactionStats& stats) {
    std::lock_guard<std::mutex> lock(epochs_mu);
    background_epochs.push_back(stats.epoch);
  };
  options.on_error = [](const std::string& error) {
    ADD_FAILURE() << "background compaction: " << error;
  };
  Compactor compactor(&live, options);

  // Runs until both sides have folded at least once (bounded in ops).
  std::atomic<bool> done{false};
  std::vector<uint64_t> manual_epochs;
  auto both_folded = [&] {
    std::lock_guard<std::mutex> lock(epochs_mu);
    return !background_epochs.empty() && !manual_epochs.empty();
  };
  auto write = [&] {
    std::string error;
    for (int op = 0; op < 20000 && !(op >= 60 && both_folded()); ++op) {
      const int64_t cust_id = 1000 + op;
      std::vector<Value> row = {
          cust_id, std::string("Mike Clone ") + std::to_string(op)};
      ASSERT_TRUE(live.Append(customer, row, &error)) << error;
      ASSERT_TRUE(replay.Append(customer, std::move(row), &error)) << error;
      if (op % 2 == 0) {
        std::vector<Value> sale = {int64_t{5000 + op}, cust_id, int64_t{1},
                                   int64_t{1}};
        ASSERT_TRUE(live.Append(sales, sale, &error)) << error;
        ASSERT_TRUE(replay.Append(sales, std::move(sale), &error)) << error;
      }
      std::this_thread::yield();
    }
  };
  std::thread writer([&] {
    write();
    done.store(true);
  });
  std::thread manual([&] {
    std::string error;
    while (!done.load()) {
      CompactionStats stats;
      ASSERT_TRUE(live.Compact("", &error, &stats)) << error;
      if (stats.epoch != 0) {
        std::lock_guard<std::mutex> lock(epochs_mu);
        manual_epochs.push_back(stats.epoch);
      }
      std::this_thread::yield();
    }
  });
  std::thread observer([&] {
    uint64_t last = 0;
    while (!done.load()) {
      const uint64_t epoch = live.Pin().epoch;
      EXPECT_GE(epoch, last);
      last = epoch;
      std::this_thread::yield();
    }
  });
  writer.join();
  manual.join();
  observer.join();
  compactor.Stop();

  EXPECT_FALSE(background_epochs.empty());
  EXPECT_FALSE(manual_epochs.empty());
  for (const std::vector<uint64_t>* epochs :
       {&background_epochs, &manual_epochs}) {
    for (size_t i = 1; i < epochs->size(); ++i) {
      EXPECT_LT((*epochs)[i - 1], (*epochs)[i]);
    }
  }
  std::vector<uint64_t> all = background_epochs;
  all.insert(all.end(), manual_epochs.begin(), manual_epochs.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "two folds published the same epoch";

  std::string error;
  ASSERT_TRUE(live.Compact("", &error)) << error;
  const DbVersion end = live.Pin();
  EXPECT_TRUE(end.view().plain());
  const DbVersion want = replay.Pin();
  EXPECT_EQ(test::LiveRows(end.view()), test::LiveRows(want.view()));
  Database cold = MaterializeDatabase(want.view());
  EXPECT_EQ(Canon(DiscoverQueries(end.view(), et, {}, end.epoch)),
            Canon(DiscoverQueries(cold, et)));
}

}  // namespace
}  // namespace qbe
