// qbe_serve — driver for the concurrent DiscoveryService. Two modes:
//
//  - batch replay (default): replays a workload of example-table requests
//    over N client threads against one shared service and prints the
//    metrics dump;
//  - network serving (--listen PORT): serves the binary wire protocol
//    (DESIGN.md §16) on loopback TCP until SIGINT/SIGTERM, then drains
//    gracefully. `qbe_loadgen` is the matching client. --listen 0 binds an
//    ephemeral port; --port-file tells scripts where it landed.
//
//   qbe_serve [--dataset retailer|imdb] [--scale S]
//             [--snapshot FILE.qbes] [--wal FILE.qbel]
//             [--requests FILE] [--repeat R]
//             [--clients N] [--workers N] [--queue-depth N]
//             [--append-mix P] [--compact-after N] [--compact-snapshot FILE]
//             [--timeout-ms T] [--algorithm verifyall|simpleprune|filter|weave]
//             [--listen PORT] [--port-file FILE] [--max-conns N]
//             [--idle-timeout-ms T]
//             [--metrics-port P] [--trace-sample F] [--slow-query-ms T]
//             [--trace-out FILE.json]
//             [--shards N] [--shard-mode hash|range] [--shard-seed S]
//             [--shardset FILE.shardset]
//
// Sharded mode (DESIGN.md §15): --shards N splits the built dataset into N
// FK-co-located shards at startup; --shardset serves pre-split per-shard
// snapshots written by `qbe_shard split`. Discovery results are
// bit-identical to unsharded serving; appends route to the shard holding
// their FK relatives (cross-shard conflicts are rejected).
//
// Flags are strict: an unknown flag or a missing/out-of-range value is
// rejected with a message naming it (see service/serve_args.h).
//
// With --snapshot, the database is mmap'd from a `.qbes` snapshot written
// by `qbe_snapshot build` (zero-copy cold start) instead of being generated;
// a corrupt or incompatible snapshot is reported and the server falls back
// to generating the requested dataset.
//
// Live ingestion (DESIGN.md §12): --wal replays and arms an append-only log
// so ingested rows survive restarts; --append-mix P makes each client turn
// P% of its operations into row appends (synthetic rows, unique PKs) —
// in-flight discoveries keep their pinned epoch while writers proceed;
// --compact-after N folds the overlay into a fresh base (and refreshes
// --compact-snapshot, default WAL path + ".qbes") every N logged ops.
//
// Observability (DESIGN.md §13): --trace-sample F traces that fraction of
// requests (deterministic sampling); --metrics-port P serves GET /metrics
// (Prometheus text) and GET /traces (Chrome trace JSON) on loopback for
// the run's duration; --slow-query-ms T logs one JSON line per request
// slower than T ms; --trace-out FILE writes the retained traces as Chrome
// trace JSON at exit (load in chrome://tracing or Perfetto).
//
// Request file format: one request per line; rows separated by ';', cells
// by '|' (same cell syntax as qbe_cli --row). Example line for Figure 2:
//
//   Mike|ThinkPad|Office;Mary|iPad|;Bob||Dropbox
//
// Without --requests, a built-in workload is used: the Figure 2 ET and its
// sub-tables for the retailer, EtSource-sampled tables for imdb.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/example_table.h"
#include "datagen/et_gen.h"
#include "datagen/imdb_like.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "net/server.h"
#include "obs/metrics_http.h"
#include "schema/schema_graph.h"
#include "service/discovery_service.h"
#include "service/serve_args.h"
#include "service/workload.h"
#include "shard/partition.h"
#include "util/stopwatch.h"

namespace {

std::atomic<bool> g_shutdown_requested{false};

void HandleShutdownSignal(int /*sig*/) { g_shutdown_requested.store(true); }

std::vector<qbe::ExampleTable> BuiltinRetailerWorkload() {
  std::vector<qbe::ExampleTable> requests;
  requests.push_back(qbe::MakeFigure2ExampleTable());
  for (const char* line :
       {"Mike|ThinkPad|Office;Mary|iPad|", "Mike|ThinkPad|Office", "Mike",
        "Mary|iPad", "Bob||Dropbox;Mike|ThinkPad|Office"}) {
    requests.push_back(*qbe::ParseRequestLine(line));
  }
  return requests;
}

std::vector<qbe::ExampleTable> BuiltinImdbWorkload(const qbe::Database& db) {
  qbe::SchemaGraph graph(db);
  qbe::Executor exec(db, graph);
  qbe::EtSource source(db, graph, exec, /*seed=*/7);
  if (source.num_matrices() == 0) {
    // Too small or text-poor to sample from (e.g. a retailer snapshot);
    // the fixed Figure 2 workload at least exercises the serving path.
    std::fprintf(stderr,
                 "warning: database too small to sample a workload from; "
                 "using the built-in retailer requests\n");
    return BuiltinRetailerWorkload();
  }
  qbe::EtParams params;
  params.m = 2;
  params.n = 2;
  params.s = 0.0;
  return source.SampleMany(params, /*count=*/8, /*seed=*/11);
}

}  // namespace

int main(int argc, char** argv) {
  qbe::ServeArgs args = qbe::ParseServeArgs(argc, argv);
  if (args.show_usage) {
    std::printf("%s", qbe::ServeUsage().c_str());
    return 0;
  }
  if (!args.ok()) {
    std::fprintf(stderr, "qbe_serve: %s\n%s", args.error.c_str(),
                 qbe::ServeUsage().c_str());
    return 2;
  }

  qbe::ServiceOptions service_options;
  service_options.num_workers = args.workers;
  service_options.max_queue_depth = args.queue_depth;
  service_options.default_timeout = std::chrono::milliseconds(args.timeout_ms);
  service_options.wal_path = args.wal_path;
  service_options.compact_after_ops = args.compact_after;
  service_options.compact_snapshot_path = args.compact_snapshot;
  service_options.discovery.algorithm =
      *qbe::ParseAlgorithmName(args.algorithm);
  service_options.trace_sample = args.trace_sample;
  service_options.slow_query_ms = args.slow_query_ms;
  if (!service_options.wal_path.empty() &&
      service_options.compact_snapshot_path.empty()) {
    // A WAL-armed compaction must persist the merged state somewhere.
    service_options.compact_snapshot_path = service_options.wal_path + ".qbes";
  }

  bool from_snapshot = false;
  std::optional<qbe::Database> opened;
  if (!args.snapshot_path.empty()) {
    qbe::Stopwatch open_timer;
    std::string snapshot_error;
    opened = qbe::Database::OpenSnapshot(args.snapshot_path, &snapshot_error);
    if (opened.has_value()) {
      from_snapshot = true;
      std::printf("opened snapshot %s in %.3fs (%.1f MB mapped)\n",
                  args.snapshot_path.c_str(), open_timer.ElapsedSeconds(),
                  static_cast<double>(opened->MappedBytes()) / 1e6);
    } else {
      std::fprintf(stderr,
                   "warning: cannot start from snapshot: %s\n"
                   "warning: falling back to generating dataset %s\n",
                   snapshot_error.c_str(), args.dataset.c_str());
    }
  }
  qbe::Database db =
      opened.has_value()
          ? std::move(*opened)
          : (args.dataset == "retailer"
                 ? qbe::MakeRetailerDatabase()
                 : qbe::MakeImdbLikeDatabase({args.scale, 20140622}));
  std::printf("dataset=%s: %d relations, %zu foreign keys\n",
              from_snapshot ? args.snapshot_path.c_str()
                            : args.dataset.c_str(),
              db.num_relations(), db.foreign_keys().size());

  // Network mode serves whatever clients send; it needs no replay workload.
  const bool listen_mode = args.listen_port >= 0;
  std::vector<qbe::ExampleTable> requests;
  if (!args.requests_file.empty()) {
    std::string workload_error;
    if (!qbe::LoadRequestFile(args.requests_file, &requests,
                              &workload_error)) {
      std::fprintf(stderr, "qbe_serve: %s\n", workload_error.c_str());
      return 1;
    }
  } else if (listen_mode) {
    // No workload needed.
  } else if (args.dataset == "retailer" && !from_snapshot) {
    requests = BuiltinRetailerWorkload();
  } else {
    // Snapshots can hold any dataset; sample ETs from the actual contents.
    requests = BuiltinImdbWorkload(db);
  }
  if (requests.empty() && !listen_mode) {
    std::fprintf(stderr, "no requests to replay\n");
    return 1;
  }

  // Sharded startup: split the in-memory database now, or open per-shard
  // snapshots named by a qbe_shard manifest. Either way the service gets a
  // vector of FK-co-located shard databases.
  std::vector<qbe::Database> shard_dbs;
  if (!args.shardset_path.empty()) {
    std::string shard_error;
    std::optional<qbe::ShardSet> set =
        qbe::ReadShardSet(args.shardset_path, &shard_error);
    if (!set.has_value()) {
      std::fprintf(stderr, "qbe_serve: %s\n", shard_error.c_str());
      return 1;
    }
    for (const std::string& path : set->paths) {
      std::optional<qbe::Database> shard =
          qbe::Database::OpenSnapshot(path, &shard_error);
      if (!shard.has_value()) {
        std::fprintf(stderr, "qbe_serve: %s: %s\n", path.c_str(),
                     shard_error.c_str());
        return 1;
      }
      shard_dbs.push_back(std::move(*shard));
    }
    service_options.shard_seed = set->seed;
    std::printf("shardset %s: %d shards (%s)\n", args.shardset_path.c_str(),
                set->num_shards(), qbe::PartitionModeName(set->mode));
  } else if (args.shards > 1) {
    qbe::PartitionOptions poptions;
    poptions.num_shards = args.shards;
    poptions.mode = *qbe::ParsePartitionMode(args.shard_mode);
    poptions.seed = static_cast<uint64_t>(args.shard_seed);
    qbe::PartitionPlan plan = qbe::ComputePartitionPlan(db, poptions);
    shard_dbs = qbe::SplitDatabase(db, plan);
    service_options.shard_seed = poptions.seed;
    std::printf("sharded %s into %d shards (%s): rows per shard [",
                args.dataset.c_str(), args.shards, args.shard_mode.c_str());
    const std::vector<uint64_t> rows = plan.RowsPerShard();
    for (size_t s = 0; s < rows.size(); ++s) {
      std::printf("%s%llu", s == 0 ? "" : " ",
                  static_cast<unsigned long long>(rows[s]));
    }
    std::printf("]\n");
  } else {
    shard_dbs.push_back(std::move(db));
  }

  // Catalog sketch for synthetic appends, captured before the move: the
  // base reference behind service.db() is not stable across compactions.
  // Read from the data actually served (a shardset's catalog can differ
  // from the generated dataset's).
  std::vector<std::vector<qbe::ColumnType>> append_schema;
  for (int rel = 0; rel < shard_dbs[0].num_relations(); ++rel) {
    std::vector<qbe::ColumnType> cols;
    for (const auto& def : shard_dbs[0].relation(rel).columns()) {
      cols.push_back(def.type);
    }
    append_schema.push_back(std::move(cols));
  }

  qbe::DiscoveryService service(std::move(shard_dbs), service_options);
  if (!service.wal_error().empty()) {
    std::fprintf(stderr, "warning: WAL not attached: %s\n",
                 service.wal_error().c_str());
  }

  std::unique_ptr<qbe::MetricsHttpServer> http;
  if (args.metrics_port >= 0) {
    http = std::make_unique<qbe::MetricsHttpServer>(
        static_cast<uint16_t>(args.metrics_port),
        [&service](const std::string& path,
                   std::string* content_type) -> std::string {
          if (path == "/metrics") {
            *content_type = "text/plain; version=0.0.4";
            return service.PrometheusMetrics();
          }
          if (path == "/traces") {
            *content_type = "application/json";
            return service.ChromeTraces();
          }
          return {};  // 404
        });
    if (http->ok()) {
      std::printf("metrics on http://127.0.0.1:%u/metrics (and /traces)\n",
                  http->port());
    } else {
      std::fprintf(stderr, "warning: metrics endpoint not started: %s\n",
                   http->error().c_str());
    }
  }

  if (listen_mode) {
    qbe::NetServerOptions net_options;
    net_options.port = static_cast<uint16_t>(args.listen_port);
    net_options.max_connections = args.max_conns;
    net_options.idle_timeout_ms = static_cast<int>(args.idle_timeout_ms);
    net_options.trace_sample = args.trace_sample;
    qbe::NetServer server(&service, net_options);
    if (!server.ok()) {
      std::fprintf(stderr, "qbe_serve: cannot listen on port %d: %s\n",
                   args.listen_port, server.error().c_str());
      return 1;
    }
    if (!args.port_file.empty()) {
      std::ofstream pf(args.port_file);
      pf << server.port() << "\n";
      if (!pf) {
        std::fprintf(stderr, "qbe_serve: failed to write %s\n",
                     args.port_file.c_str());
        return 1;
      }
    }
    std::printf("serving wire protocol on 127.0.0.1:%u (Ctrl-C to stop)\n",
                server.port());
    std::fflush(stdout);
    std::signal(SIGINT, HandleShutdownSignal);
    std::signal(SIGTERM, HandleShutdownSignal);
    while (!g_shutdown_requested.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("shutdown requested; draining\n");
    server.Stop();
    std::string flush_error;
    if (!service.Flush(&flush_error)) {
      std::fprintf(stderr, "warning: WAL flush failed: %s\n",
                   flush_error.c_str());
    }
    if (http != nullptr) http->Stop();
    if (!args.trace_out.empty()) {
      // Request traces plus the server's per-connection net traces.
      std::vector<qbe::Trace> traces = service.RecentTraces();
      for (qbe::Trace& t : server.RecentNetTraces()) {
        traces.push_back(std::move(t));
      }
      std::ofstream out(args.trace_out);
      if (out) {
        out << qbe::ChromeTraceJson(traces);
        std::printf("wrote %zu traces to %s\n", traces.size(),
                    args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", args.trace_out.c_str());
      }
    }
    service.Shutdown();
    std::printf("%s", service.MetricsDump().c_str());
    return 0;
  }

  // Each client replays the whole request list `repeat` times, offset by
  // its id so clients hit different requests at the same instant. With
  // --append-mix P, every 100 operations P of them are row appends
  // (unique ids per client, so admission never rejects a duplicate PK).
  qbe::Stopwatch wall;
  std::vector<std::thread> client_threads;
  std::atomic<long long> ok{0}, rejected{0}, timed_out{0}, other{0};
  std::atomic<long long> appended{0}, append_failed{0};
  for (int c = 0; c < args.clients; ++c) {
    client_threads.emplace_back([&, c] {
      long long op = 0;
      for (int r = 0; r < args.repeat; ++r) {
        for (size_t q = 0; q < requests.size(); ++q, ++op) {
          if (args.append_mix > 0 && op % 100 < args.append_mix) {
            int rel = static_cast<int>(op % append_schema.size());
            long long uniq = 1'000'000'000LL +
                             static_cast<long long>(c) * 10'000'000LL + op;
            std::vector<qbe::Value> values;
            for (qbe::ColumnType type : append_schema[rel]) {
              if (type == qbe::ColumnType::kId) {
                values.emplace_back(static_cast<int64_t>(uniq));
              } else {
                values.emplace_back("live ingest row " +
                                    std::to_string(uniq));
              }
            }
            std::string error;
            if (service.Append(rel, std::move(values), &error)) {
              appended.fetch_add(1, std::memory_order_relaxed);
            } else {
              append_failed.fetch_add(1, std::memory_order_relaxed);
            }
            continue;
          }
          size_t pick = (q + static_cast<size_t>(c)) % requests.size();
          qbe::ServiceResponse response = service.Discover(requests[pick]);
          switch (response.status) {
            case qbe::RequestStatus::kOk:
              ok.fetch_add(1, std::memory_order_relaxed);
              break;
            case qbe::RequestStatus::kRejected:
              rejected.fetch_add(1, std::memory_order_relaxed);
              break;
            case qbe::RequestStatus::kTimedOut:
              timed_out.fetch_add(1, std::memory_order_relaxed);
              break;
            default:
              other.fetch_add(1, std::memory_order_relaxed);
              break;
          }
        }
      }
    });
  }
  for (std::thread& t : client_threads) t.join();
  double seconds = wall.ElapsedSeconds();
  std::string flush_error;
  if (!service.Flush(&flush_error)) {
    std::fprintf(stderr, "warning: WAL flush failed: %s\n",
                 flush_error.c_str());
  }
  if (http != nullptr) http->Stop();
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    if (out) {
      out << service.ChromeTraces();
      std::printf("wrote %zu traces to %s\n", service.RecentTraces().size(),
                  args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", args.trace_out.c_str());
    }
  }
  service.Shutdown();

  long long total = ok + rejected + timed_out + other;
  std::printf(
      "replayed %lld requests from %d clients in %.3fs (%.1f req/s): "
      "%lld ok, %lld rejected, %lld timed out, %lld other\n",
      total, args.clients, seconds,
      seconds > 0 ? static_cast<double>(total) / seconds : 0.0,
      static_cast<long long>(ok), static_cast<long long>(rejected),
      static_cast<long long>(timed_out), static_cast<long long>(other));
  if (args.append_mix > 0) {
    unsigned long long epoch_sum = 0;
    size_t overlay_rows = 0;
    for (int s = 0; s < service.num_shards(); ++s) {
      epoch_sum += service.live_shard(s).epoch();
      overlay_rows += service.live_shard(s).delta_rows();
    }
    std::printf("appended %lld rows (%lld rejected), final epoch %llu, "
                "%zu overlay rows\n",
                static_cast<long long>(appended),
                static_cast<long long>(append_failed), epoch_sum,
                overlay_rows);
  }
  std::printf("%s", service.MetricsDump().c_str());
  return 0;
}
