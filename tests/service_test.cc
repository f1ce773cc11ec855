// DiscoveryService integration tests: the 8-thread stress runs assert that
// serving discovery concurrently from one shared service — one worker
// pool, one sharded verification cache — returns bit-identical query sets
// to single-threaded DiscoverQueries on the same inputs. Run these under
// -DQBE_SANITIZE=thread as well as plain builds.

#include "service/discovery_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "datagen/et_gen.h"
#include "datagen/imdb_like.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "obs/trace.h"
#include "schema/schema_graph.h"
#include "service/concurrent_eval_cache.h"
#include "service/serve_args.h"
#include "shard/shard_exec.h"
#include "test_util.h"

namespace qbe {
namespace {

std::vector<std::string> SqlList(const DiscoveryResult& result) {
  std::vector<std::string> sql;
  sql.reserve(result.queries.size());
  for (const DiscoveredQuery& q : result.queries) sql.push_back(q.sql);
  return sql;
}

ExampleTable Et(const std::vector<std::vector<std::string>>& rows) {
  ExampleTable et = ExampleTable::WithColumns(static_cast<int>(rows[0].size()));
  for (const std::vector<std::string>& row : rows) et.AddRow(row);
  return et;
}

std::vector<ExampleTable> RetailerWorkload() {
  return {
      MakeFigure2ExampleTable(),
      Et({{"Mike", "ThinkPad", "Office"}}),
      Et({{"Mike"}}),
      Et({{"Mary", "iPad"}}),
      Et({{"Mike", "ThinkPad", "Office"}, {"Mary", "iPad", ""}}),
      Et({{"Bob", "", "Dropbox"}, {"Mike", "ThinkPad", "Office"}}),
  };
}

/// Hammers `service` from `num_threads` clients, each replaying the whole
/// workload `repeat` times (offset per client), and asserts every response
/// is kOk with exactly the expected SQL list.
void StressAndCompare(DiscoveryService& service,
                      const std::vector<ExampleTable>& workload,
                      const std::vector<std::vector<std::string>>& expected,
                      int num_threads, int repeat) {
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < num_threads; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < repeat; ++r) {
        for (size_t q = 0; q < workload.size(); ++q) {
          size_t pick = (q + static_cast<size_t>(c)) % workload.size();
          ServiceResponse response = service.Discover(workload[pick]);
          if (response.status != RequestStatus::kOk ||
              SqlList(response.result) != expected[pick]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// A cache key named by a string, for tests that only need distinct keys.
EvalCacheKey Key(const std::string& name) {
  Hasher128 hasher;
  hasher.AddBytes(name);
  return hasher.Finish();
}

TEST(ConcurrentEvalCacheTest, LookupAndInsert) {
  ConcurrentEvalCache cache;
  EXPECT_FALSE(cache.Lookup(Key("k1")).has_value());
  cache.Insert(Key("k1"), true);
  cache.Insert(Key("k2"), false);
  ASSERT_TRUE(cache.Lookup(Key("k1")).has_value());
  EXPECT_TRUE(*cache.Lookup(Key("k1")));
  EXPECT_FALSE(*cache.Lookup(Key("k2")));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookups(), 4);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_GT(cache.HitRate(), 0.7);
}

TEST(ConcurrentEvalCacheTest, FirstInsertWinsLikeSingleThreaded) {
  // emplace semantics: a duplicate insert must not overwrite — outcomes
  // are deterministic anyway, but the contract matches EvalCache.
  ConcurrentEvalCache cache;
  cache.Insert(Key("k"), true);
  cache.Insert(Key("k"), false);
  EXPECT_TRUE(*cache.Lookup(Key("k")));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ConcurrentEvalCacheTest, ConcurrentMixedUseKeepsEveryOutcome) {
  ConcurrentEvalCache cache;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        std::string key = "key-" + std::to_string(i);
        if (std::optional<bool> hit = cache.Lookup(Key(key))) {
          // Outcomes must never be corrupted by concurrent writers.
          EXPECT_EQ(*hit, i % 2 == 0) << "thread " << t;
        } else {
          cache.Insert(Key(key), i % 2 == 0);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.size(), 500u);
  EXPECT_EQ(cache.lookups(), 8 * 500);
}

TEST(ServiceStressTest, EightThreadsMatchSingleThreadedOnRetailer) {
  std::vector<ExampleTable> workload = RetailerWorkload();
  ServiceOptions options;
  options.num_workers = 4;
  options.max_queue_depth = 256;
  DiscoveryService service(MakeRetailerDatabase(), options);

  // Ground truth: plain single-threaded DiscoverQueries, no cache.
  std::vector<std::vector<std::string>> expected;
  for (const ExampleTable& et : workload) {
    DiscoveryResult result = DiscoverQueries(service.db(), et);
    ASSERT_TRUE(result.ok());
    expected.push_back(SqlList(result));
  }

  StressAndCompare(service, workload, expected, /*num_threads=*/8,
                   /*repeat=*/5);

  // The whole point of the shared cache: later requests are served from
  // outcomes computed by other sessions.
  EXPECT_GT(service.cache().hits(), 0);
  EXPECT_GT(service.cache().HitRate(), 0.5);
  EXPECT_EQ(service.metrics().GetCounter("requests_completed").Value(),
            8 * 5 * static_cast<int64_t>(workload.size()));
  std::string dump = service.MetricsDump();
  EXPECT_NE(dump.find("eval_cache_hit_rate"), std::string::npos);
  EXPECT_NE(dump.find("latency_seconds"), std::string::npos);
  EXPECT_GT(service.cache().bytes(), 0u);
  EXPECT_NE(dump.find("gauge     eval_cache_bytes "), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("counter   eval_cache_generations 0\n"),
            std::string::npos)
      << dump;

  // A publish rotates the cache once.
  std::string error;
  ASSERT_TRUE(service.Append(service.db().RelationIdByName("Customer"),
                             {int64_t{9}, std::string("Zed Quinn")}, &error))
      << error;
  EXPECT_NE(service.MetricsDump().find("counter   eval_cache_generations 1\n"),
            std::string::npos);

  // The ingest metrics: every mutation's latency, and the ops a fold left
  // in the log (none here: nothing commits during this fold).
  ASSERT_TRUE(service.CompactNow(&error)) << error;
  dump = service.MetricsDump();
  EXPECT_NE(dump.find("histogram append_seconds count=1 "), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("counter   compaction_tail_ops 0\n"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("counter   compactions 1\n"), std::string::npos)
      << dump;
}

TEST(ServiceStressTest, EightThreadsMatchSingleThreadedOnImdb) {
  ImdbConfig config;
  config.scale = 0.1;
  DiscoveryService service(MakeImdbLikeDatabase(config), ServiceOptions{});

  // Sample a workload of ETs from the database's own join matrices.
  SchemaGraph graph(service.db());
  Executor exec(service.db(), graph);
  EtSource source(service.db(), graph, exec, /*seed=*/7);
  EtParams params;
  params.m = 2;
  params.n = 2;
  params.s = 0.0;
  std::vector<ExampleTable> workload = source.SampleMany(params, 6, 11);

  std::vector<std::vector<std::string>> expected;
  for (const ExampleTable& et : workload) {
    DiscoveryResult result = DiscoverQueries(service.db(), et);
    ASSERT_TRUE(result.ok());
    expected.push_back(SqlList(result));
  }

  StressAndCompare(service, workload, expected, /*num_threads=*/8,
                   /*repeat=*/3);
  EXPECT_GT(service.cache().hits(), 0);
}

TEST(ServiceTest, RejectsWhenQueueIsFull) {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<bool> worker_entered{false};
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  options.on_request_start = [&] {
    worker_entered.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  };
  DiscoveryService service(MakeRetailerDatabase(), options);
  ExampleTable et = Et({{"Mike"}});

  // The first request is dequeued by the single worker, which then blocks
  // in the gate — from here on admission is deterministic: one queue slot
  // free, and nobody draining it.
  std::future<ServiceResponse> running = service.Submit(et);
  while (!worker_entered.load()) std::this_thread::yield();

  std::future<ServiceResponse> queued = service.Submit(et);  // fills slot
  std::future<ServiceResponse> rejected = service.Submit(et);
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rejected.get().status, RequestStatus::kRejected);
  EXPECT_EQ(service.metrics().GetCounter("requests_rejected").Value(), 1);
  EXPECT_EQ(service.metrics().GetCounter("requests_admitted").Value(), 2);

  {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
  }
  cv.notify_all();
  EXPECT_EQ(running.get().status, RequestStatus::kOk);
  EXPECT_EQ(queued.get().status, RequestStatus::kOk);
}

TEST(ServiceTest, ExpiredDeadlineTimesOutWithoutPoisoningCache) {
  DiscoveryService service(MakeRetailerDatabase(), ServiceOptions{});
  ExampleTable et = MakeFigure2ExampleTable();

  // A negative budget is already expired at admission: deterministic
  // timeout regardless of machine speed.
  ServiceResponse timed_out =
      service.Discover(et, std::chrono::milliseconds(-1));
  EXPECT_EQ(timed_out.status, RequestStatus::kTimedOut);
  EXPECT_TRUE(timed_out.result.timed_out);
  EXPECT_TRUE(timed_out.result.queries.empty());
  EXPECT_FALSE(timed_out.result.ok());
  EXPECT_EQ(service.metrics().GetCounter("requests_timed_out").Value(), 1);

  // The aborted run must not have written fabricated outcomes into the
  // shared cache: the same request without a deadline returns exactly the
  // fresh single-threaded answer.
  ServiceResponse ok = service.Discover(et);
  ASSERT_EQ(ok.status, RequestStatus::kOk);
  DiscoveryResult fresh = DiscoverQueries(service.db(), et);
  EXPECT_EQ(SqlList(ok.result), SqlList(fresh));
  EXPECT_FALSE(ok.result.queries.empty());
}

TEST(ServiceTest, GenerousDeadlineStillCompletes) {
  DiscoveryService service(MakeRetailerDatabase(), ServiceOptions{});
  ServiceResponse response = service.Discover(
      MakeFigure2ExampleTable(), std::chrono::milliseconds(60000));
  EXPECT_EQ(response.status, RequestStatus::kOk);
  EXPECT_FALSE(response.result.queries.empty());
}

TEST(ServiceTest, MalformedTableFails) {
  DiscoveryService service(MakeRetailerDatabase(), ServiceOptions{});
  ExampleTable empty_row = ExampleTable::WithColumns(2);
  empty_row.AddRow({"", ""});
  ServiceResponse response = service.Discover(empty_row);
  EXPECT_EQ(response.status, RequestStatus::kFailed);
  EXPECT_FALSE(response.result.ok());
  EXPECT_EQ(service.metrics().GetCounter("requests_failed").Value(), 1);
}

TEST(ServiceTest, TooBroadTableFails) {
  ServiceOptions options;
  options.discovery.max_candidates = 2;  // Figure 2 has 3 candidates
  DiscoveryService service(MakeRetailerDatabase(), options);
  ServiceResponse response = service.Discover(MakeFigure2ExampleTable());
  EXPECT_EQ(response.status, RequestStatus::kFailed);
  EXPECT_EQ(response.result.error, "ET too broad: more than 2 candidates");
  EXPECT_TRUE(response.result.queries.empty());
  EXPECT_EQ(service.metrics().GetCounter("requests_failed").Value(), 1);
}

TEST(ServiceTest, GracefulShutdownDrainsInFlightRequests) {
  ServiceOptions options;
  options.num_workers = 2;
  options.max_queue_depth = 64;
  DiscoveryService service(MakeRetailerDatabase(), options);
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(service.Submit(MakeFigure2ExampleTable()));
  }
  service.Shutdown();
  for (std::future<ServiceResponse>& f : futures) {
    ServiceResponse response = f.get();  // every promise resolved
    EXPECT_TRUE(response.status == RequestStatus::kOk ||
                response.status == RequestStatus::kRejected);
  }
  // After shutdown, new submissions fast-fail with kShutdown.
  EXPECT_EQ(service.Discover(MakeFigure2ExampleTable()).status,
            RequestStatus::kShutdown);
  EXPECT_GE(service.metrics().GetCounter("requests_shutdown").Value(), 1);
}

TEST(OwnerThreadDeathTest, SecondThreadUseAborts) {
  // Per-request state takes no lock: each object is pinned to the first
  // thread that uses it, and a use from a second thread aborts naming the
  // object, in every build type. Requests that share one cache across
  // threads use ConcurrentEvalCache.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        EvalCache cache;
        cache.Insert(Key("k"), true);
        std::thread second([&cache] { cache.Insert(Key("k2"), false); });
        second.join();
      },
      "EvalCache used from a second thread");
  EXPECT_DEATH(
      {
        TraceContext trace;
        ScopedSpan root(&trace, SpanKind::kRequest);
        std::thread second([&trace] {
          ScopedSpan span(&trace, SpanKind::kEvalExec);
        });
        second.join();
      },
      "TraceContext used from a second thread");
  EXPECT_DEATH(
      {
        Database db = MakeRetailerDatabase();
        SchemaGraph graph(db);
        ShardExecSet probes(DbView(db), graph);
        const JoinTree tree = test::Tree(db, graph, {"Sales", "Customer"});
        probes.Exists(tree, {}, nullptr, kNullSpan);
        std::thread second([&] { probes.Exists(tree, {}, nullptr, kNullSpan); });
        second.join();
      },
      "ShardExecSet used from a second thread");
}

TEST(ServiceTest, SessionsShareServiceCache) {
  // Two DiscoverySessions on different "users" sharing one concurrent
  // cache: the second session's first discovery is served largely from
  // outcomes the first session computed.
  Database db = MakeRetailerDatabase();
  ConcurrentEvalCache shared;
  DiscoverySession first(db, DiscoveryOptions{}, &shared);
  first.SetTable(MakeFigure2ExampleTable());
  DiscoveryResult from_first = first.Discover();
  int64_t hits_before = shared.hits();

  DiscoverySession second(db, DiscoveryOptions{}, &shared);
  second.SetTable(MakeFigure2ExampleTable());
  DiscoveryResult from_second = second.Discover();
  EXPECT_GT(shared.hits(), hits_before);
  EXPECT_EQ(SqlList(from_first), SqlList(from_second));

  // And the answers match a cacheless batch run.
  DiscoveryResult batch = DiscoverQueries(db, MakeFigure2ExampleTable());
  EXPECT_EQ(SqlList(from_second), SqlList(batch));
}

// ---------------------------------------------------------------------------
// qbe_serve command-line parsing (service/serve_args.h). The parser is
// strict: unknown flags, missing values, and out-of-range values fail
// naming the flag instead of being silently ignored.

ServeArgs Parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "qbe_serve");
  return ParseServeArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(ServeArgsTest, ParsesAFullCommandLine) {
  ServeArgs args = Parse({"--dataset", "imdb", "--scale", "0.5",
                          "--clients", "2", "--workers", "3",
                          "--algorithm", "weave", "--metrics-port", "0",
                          "--trace-sample", "0.25", "--slow-query-ms", "10",
                          "--trace-out", "/tmp/t.json"});
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_EQ(args.dataset, "imdb");
  EXPECT_DOUBLE_EQ(args.scale, 0.5);
  EXPECT_EQ(args.clients, 2);
  EXPECT_EQ(args.workers, 3);
  EXPECT_EQ(args.algorithm, "weave");
  EXPECT_EQ(args.metrics_port, 0);
  EXPECT_DOUBLE_EQ(args.trace_sample, 0.25);
  EXPECT_DOUBLE_EQ(args.slow_query_ms, 10.0);
  EXPECT_EQ(args.trace_out, "/tmp/t.json");
  EXPECT_FALSE(args.show_usage);
}

TEST(ServeArgsTest, RejectsUnknownFlagNamingIt) {
  ServeArgs args = Parse({"--clients", "2", "--bogus-flag", "--workers", "3"});
  EXPECT_FALSE(args.ok());
  EXPECT_EQ(args.error, "unknown flag --bogus-flag");
}

TEST(ServeArgsTest, RejectsMissingValue) {
  ServeArgs args = Parse({"--clients"});
  EXPECT_FALSE(args.ok());
  EXPECT_EQ(args.error, "missing value for --clients");
}

TEST(ServeArgsTest, RejectsOutOfRangeAndMalformedValues) {
  EXPECT_EQ(Parse({"--trace-sample", "1.5"}).error,
            "bad value for --trace-sample: 1.5");
  EXPECT_EQ(Parse({"--clients", "0"}).error, "bad value for --clients: 0");
  EXPECT_EQ(Parse({"--workers", "4x"}).error, "bad value for --workers: 4x");
  EXPECT_EQ(Parse({"--metrics-port", "70000"}).error,
            "bad value for --metrics-port: 70000");
  EXPECT_EQ(Parse({"--timeout-ms", "-2"}).error,
            "bad value for --timeout-ms: -2");
  // -1 stays accepted: an already-expired deadline drives the timeout path.
  EXPECT_TRUE(Parse({"--timeout-ms", "-1"}).ok());
}

TEST(ServeArgsTest, RejectsUnknownDatasetAndAlgorithm) {
  EXPECT_EQ(Parse({"--dataset", "tpch"}).error, "unknown dataset tpch");
  EXPECT_EQ(Parse({"--algorithm", "magic"}).error, "unknown algorithm magic");
}

TEST(ServeArgsTest, HelpSetsShowUsage) {
  EXPECT_TRUE(Parse({"--help"}).show_usage);
  EXPECT_TRUE(Parse({"-h"}).show_usage);
  EXPECT_FALSE(ServeUsage().empty());
}

}  // namespace
}  // namespace qbe
