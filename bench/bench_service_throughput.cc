// Service-layer scaling bench: replays an IMDB-like ET workload from 8
// client threads against one DiscoveryService, sweeping the worker count,
// and reports throughput, latency quantiles, and the shared-cache hit rate.
// The cross-request hit rate is the serving-side payoff of the paper's §5
// filter sharing: concurrent users asking related questions re-use each
// other's verification outcomes.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"

#include "datagen/et_gen.h"
#include "datagen/imdb_like.h"
#include "exec/executor.h"
#include "harness/experiment.h"
#include "harness/table_printer.h"
#include "schema/schema_graph.h"
#include "service/discovery_service.h"
#include "shard/partition.h"
#include "storage/database.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace qbe {
namespace {

constexpr int kClients = 8;

/// One per-phase rollup row from the service's phase_seconds_* histograms,
/// which observe each traced request's total time in that phase: `count` is
/// traced requests touching the phase, `total_seconds` the time summed
/// across them.
struct PhaseRollup {
  std::string name;
  int64_t count = 0;
  double total_seconds = 0.0;
};

struct RunResult {
  double seconds = 0;
  double requests_per_second = 0;
  double p50 = 0;
  double p99 = 0;
  double hit_rate = 0;
  std::vector<PhaseRollup> phases;  // traced runs only
};

RunResult RunOnce(Database db, const std::vector<ExampleTable>& workload,
                  int workers, int repeat, int append_mix = 0,
                  double trace_sample = 0.0) {
  ServiceOptions options;
  options.num_workers = workers;
  options.max_queue_depth = 1024;
  options.trace_sample = trace_sample;

  // Catalog sketch for synthetic appends (the service owns the database
  // after the move).
  std::vector<std::vector<ColumnType>> append_schema;
  for (int rel = 0; rel < db.num_relations(); ++rel) {
    std::vector<ColumnType> cols;
    for (const auto& def : db.relation(rel).columns()) cols.push_back(def.type);
    append_schema.push_back(std::move(cols));
  }

  DiscoveryService service(std::move(db), options);

  Stopwatch wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      long long op = 0;
      for (int r = 0; r < repeat; ++r) {
        for (size_t q = 0; q < workload.size(); ++q, ++op) {
          if (append_mix > 0 && op % 100 < append_mix) {
            // Live-write mix: this op appends a synthetic row (unique PK
            // per client) instead of discovering; each append publishes a
            // new epoch that subsequent reads pin.
            int rel = static_cast<int>(op % append_schema.size());
            long long uniq = 1'000'000'000LL +
                             static_cast<long long>(c) * 10'000'000LL + op;
            std::vector<Value> values;
            for (ColumnType type : append_schema[rel]) {
              if (type == ColumnType::kId) {
                values.emplace_back(static_cast<int64_t>(uniq));
              } else {
                values.emplace_back("ingest bench row " +
                                    std::to_string(uniq));
              }
            }
            std::string error;
            service.Append(rel, std::move(values), &error);
            continue;
          }
          size_t pick = (q + static_cast<size_t>(c)) % workload.size();
          service.Discover(workload[pick]);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  RunResult result;
  result.seconds = wall.ElapsedSeconds();
  double total = static_cast<double>(kClients) * repeat *
                 static_cast<double>(workload.size());
  result.requests_per_second =
      result.seconds > 0 ? total / result.seconds : 0.0;
  // `latency_seconds` only observes Discover requests, so the quantiles
  // below are pure read latencies even under an append mix.
  Histogram& latency = service.metrics().GetHistogram(
      "latency_seconds", ExponentialBuckets(1e-4, 2.0, 21));
  result.p50 = latency.Quantile(0.5);
  result.p99 = latency.Quantile(0.99);
  result.hit_rate = service.cache().HitRate();
  const std::string prefix = "phase_seconds_";
  for (const auto& hist : service.metrics().Snapshot().histograms) {
    if (hist.name.compare(0, prefix.size(), prefix) != 0) continue;
    result.phases.push_back(
        {hist.name.substr(prefix.size()), hist.count, hist.sum});
  }
  return result;
}

/// A decomposable Customer ← Order ← Shipment chain for the sharded sweep:
/// every customer is its own join component, so hash partitioning spreads
/// the data near-evenly and the sweep measures genuine parallel speedup —
/// unlike the IMDB-like schema, whose shared dimensions collapse into one
/// giant component (the degenerate case DESIGN.md §15 calls out). Text is
/// drawn from small shared pools so phrases recur across shards and the
/// scatter-gather merge sees real multi-shard hits.
Database MakeOrderChainDatabase(int customers, uint64_t seed) {
  const char* names[] = {"mike", "mary", "bob", "alice", "dave"};
  const char* cities[] = {"berlin", "tokyo", "lima"};
  const char* items[] = {"laptop", "tablet", "phone", "camera"};
  const char* notes[] = {"express", "fragile", "gift"};
  Rng rng(seed);

  Relation customer("Customer", {{"CustId", ColumnType::kId},
                                 {"Name", ColumnType::kText},
                                 {"City", ColumnType::kText}});
  Relation order("Order", {{"OrderId", ColumnType::kId},
                           {"CustId", ColumnType::kId},
                           {"Item", ColumnType::kText}});
  Relation shipment("Shipment", {{"ShipId", ColumnType::kId},
                                 {"OrderId", ColumnType::kId},
                                 {"Note", ColumnType::kText}});
  int64_t next_order = 0;
  int64_t next_ship = 0;
  for (int64_t c = 0; c < customers; ++c) {
    customer.AppendRow({c, std::string(names[rng.NextBounded(5)]),
                        std::string(cities[rng.NextBounded(3)])});
    for (int o = 0; o < 3; ++o) {
      int64_t oid = next_order++;
      order.AppendRow({oid, c, std::string(items[rng.NextBounded(4)])});
      for (int s = 0; s < 2; ++s) {
        shipment.AppendRow(
            {next_ship++, oid, std::string(notes[rng.NextBounded(3)])});
      }
    }
  }
  Database db;
  db.AddRelation(std::move(customer));
  db.AddRelation(std::move(order));
  db.AddRelation(std::move(shipment));
  db.AddForeignKey("Order", "CustId", "Customer", "CustId");
  db.AddForeignKey("Shipment", "OrderId", "Order", "OrderId");
  db.BuildIndexes();
  return db;
}

/// One point of the sharded sweep: the timed replay plus the full serial
/// response set (SQL + scores per ET) for the cross-shard-count
/// bit-identity check, and the scatter-gather counters.
struct ShardedPoint {
  int shards = 1;
  RunResult run;
  int64_t probes = 0;
  int64_t skipped_empty = 0;
  double straggler = 0.0;  // 0 when unsharded (gauge not set)
  std::vector<std::vector<std::string>> sql;
  std::vector<std::vector<double>> scores;
};

ShardedPoint RunSharded(int num_shards, uint64_t shard_seed, int customers,
                        uint64_t db_seed,
                        const std::vector<ExampleTable>& workload, int workers,
                        int repeat) {
  Database whole = MakeOrderChainDatabase(customers, db_seed);
  PartitionOptions poptions;
  poptions.num_shards = num_shards;
  poptions.mode = PartitionMode::kHashPk;
  poptions.seed = shard_seed;
  std::vector<Database> shards =
      SplitDatabase(whole, ComputePartitionPlan(whole, poptions));

  ServiceOptions options;
  options.num_workers = workers;
  options.max_queue_depth = 1024;
  options.shard_seed = shard_seed;
  DiscoveryService service(std::move(shards), options);

  ShardedPoint point;
  point.shards = num_shards;
  // Serial pass first: record each ET's response for the bit-identity
  // check, and warm the shared cache the same way at every shard count so
  // the timed replay below compares like with like.
  for (const ExampleTable& et : workload) {
    ServiceResponse response = service.Discover(et);
    QBE_CHECK_MSG(response.ok(), "sharded discovery failed");
    std::vector<std::string> sql;
    std::vector<double> scores;
    for (const DiscoveredQuery& q : response.result.queries) {
      sql.push_back(q.sql);
      scores.push_back(q.score);
    }
    point.sql.push_back(std::move(sql));
    point.scores.push_back(std::move(scores));
  }

  Stopwatch wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < repeat; ++r) {
        for (size_t q = 0; q < workload.size(); ++q) {
          size_t pick = (q + static_cast<size_t>(c)) % workload.size();
          service.Discover(workload[pick]);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  point.run.seconds = wall.ElapsedSeconds();
  double total = static_cast<double>(kClients) * repeat *
                 static_cast<double>(workload.size());
  point.run.requests_per_second =
      point.run.seconds > 0 ? total / point.run.seconds : 0.0;
  Histogram& latency = service.metrics().GetHistogram(
      "latency_seconds", ExponentialBuckets(1e-4, 2.0, 21));
  point.run.p50 = latency.Quantile(0.5);
  point.run.p99 = latency.Quantile(0.99);
  point.run.hit_rate = service.cache().HitRate();
  for (int s = 0; s < num_shards; ++s) {
    const std::string suffix = "_s" + std::to_string(s);
    point.probes += service.metrics().GetCounter("shard_probes" + suffix)
                        .Value();
    point.skipped_empty +=
        service.metrics().GetCounter("shard_skipped_empty" + suffix).Value();
  }
  for (const auto& gauge : service.metrics().Snapshot().gauges) {
    if (gauge.first == "shard_straggler_ratio") point.straggler = gauge.second;
  }
  return point;
}

void Run(const BenchArgs& args, const std::string& shard_json_path) {
  ImdbConfig config;
  config.scale = args.scale;
  config.seed = args.seed;
  Database db = MakeImdbLikeDatabase(config);
  SchemaGraph graph(db);
  Executor exec(db, graph);
  EtSource source(db, graph, exec, args.seed);
  EtParams params;  // Table 3 defaults
  std::vector<ExampleTable> workload =
      source.SampleMany(params, args.ets_per_point, args.seed);

  std::printf(
      "Service throughput: %d clients replaying %zu ETs x%d over the "
      "IMDB-like dataset (scale %.2f), shared verification cache\n",
      kClients, workload.size(), /*repeat=*/8, args.scale);
  TablePrinter table({"workers", "wall(s)", "req/s", "p50(s)<=", "p99(s)<=",
                      "cache hit rate"});
  for (int workers : {1, 2, 4, 8}) {
    RunResult r =
        RunOnce(MakeImdbLikeDatabase(config), workload, workers, 8);
    table.AddRow({std::to_string(workers), FormatDouble(r.seconds, 3),
                  FormatDouble(r.requests_per_second, 1),
                  FormatDouble(r.p50, 4), FormatDouble(r.p99, 4),
                  FormatDouble(r.hit_rate, 3)});
  }
  table.Print(std::cout);

  // Live-ingestion overhead (DESIGN.md §12): same workload with 5% of
  // client ops turned into row appends. Epoch-pinned reads should keep the
  // read p50 within ~15% of the read-only baseline — appends rebuild the
  // overlay off the read path and publish with one pointer swap.
  std::printf(
      "\nLive-write mix: read latency with 0%% vs 5%% appended ops "
      "(4 workers)\n");
  TablePrinter mix_table({"append mix", "wall(s)", "read p50(s)<=",
                          "read p99(s)<=", "p50 vs read-only"});
  double baseline_p50 = 0.0;
  for (int mix : {0, 5}) {
    RunResult r =
        RunOnce(MakeImdbLikeDatabase(config), workload, /*workers=*/4, 8, mix);
    if (mix == 0) baseline_p50 = r.p50;
    mix_table.AddRow(
        {std::to_string(mix) + "%", FormatDouble(r.seconds, 3),
         FormatDouble(r.p50, 4), FormatDouble(r.p99, 4),
         baseline_p50 > 0 ? FormatDouble(r.p50 / baseline_p50, 3) + "x"
                          : "n/a"});
  }
  mix_table.Print(std::cout);

  // Tracing overhead (DESIGN.md §13): same read-only workload, 4 workers,
  // with request tracing off vs 100% sampled. The acceptance bar is a read
  // p50 regression under 2% when off (bit-identical code path: every site
  // guards on a null TraceContext*) and single-digit % when fully sampled.
  std::printf("\nTracing overhead: read latency untraced vs 100%% sampled "
              "(4 workers)\n");
  TablePrinter trace_table({"trace sample", "wall(s)", "p50(s)<=",
                            "p99(s)<=", "p50 vs untraced"});
  RunResult untraced =
      RunOnce(MakeImdbLikeDatabase(config), workload, /*workers=*/4, 8);
  RunResult traced = RunOnce(MakeImdbLikeDatabase(config), workload,
                             /*workers=*/4, 8, /*append_mix=*/0,
                             /*trace_sample=*/1.0);
  trace_table.AddRow({"0", FormatDouble(untraced.seconds, 3),
                      FormatDouble(untraced.p50, 4),
                      FormatDouble(untraced.p99, 4), "1.000x"});
  trace_table.AddRow(
      {"1.0", FormatDouble(traced.seconds, 3), FormatDouble(traced.p50, 4),
       FormatDouble(traced.p99, 4),
       untraced.p50 > 0 ? FormatDouble(traced.p50 / untraced.p50, 3) + "x"
                        : "n/a"});
  trace_table.Print(std::cout);

  std::printf("\nPer-phase rollup over the traced run (time per request "
              "spent in each phase)\n");
  TablePrinter phase_table({"phase", "requests", "total(s)", "mean(ms)"});
  for (const PhaseRollup& phase : traced.phases) {
    phase_table.AddRow(
        {phase.name, std::to_string(phase.count),
         FormatDouble(phase.total_seconds, 3),
         phase.count > 0
             ? FormatDouble(phase.total_seconds * 1e3 / phase.count, 4)
             : "n/a"});
  }
  phase_table.Print(std::cout);

  if (!args.json_path.empty()) {
    std::ofstream json(args.json_path);
    QBE_CHECK_MSG(static_cast<bool>(json), "cannot open --json path");
    json << "{\n"
         << "  \"bench\": \"service_tracing_overhead\",\n"
         << "  \"scale\": " << args.scale << ",\n"
         << "  \"clients\": " << kClients << ",\n"
         << "  \"workers\": 4,\n"
         << "  \"untraced_p50_s\": " << untraced.p50 << ",\n"
         << "  \"untraced_p99_s\": " << untraced.p99 << ",\n"
         << "  \"traced_p50_s\": " << traced.p50 << ",\n"
         << "  \"traced_p99_s\": " << traced.p99 << ",\n"
         << "  \"traced_over_untraced_p50\": "
         << (untraced.p50 > 0 ? traced.p50 / untraced.p50 : 0.0) << ",\n"
         << "  \"untraced_req_per_s\": " << untraced.requests_per_second
         << ",\n"
         << "  \"traced_req_per_s\": " << traced.requests_per_second << ",\n"
         << "  \"phases\": [\n";
    for (size_t i = 0; i < traced.phases.size(); ++i) {
      const PhaseRollup& phase = traced.phases[i];
      json << "    {\"phase\": \"" << phase.name
           << "\", \"requests\": " << phase.count
           << ", \"total_s\": " << phase.total_seconds << "}"
           << (i + 1 == traced.phases.size() ? "\n" : ",\n");
    }
    json << "  ]\n}\n";
    std::printf("wrote %s\n", args.json_path.c_str());
  }

  // Sharded scatter-gather sweep (DESIGN.md §15): the same service bench
  // over a decomposable order-chain dataset partitioned into 1/2/4 shards.
  // Every point QBE_CHECKs that its SQL sets and scores are bit-identical
  // to the unsharded point, so the table below is pure overhead-vs-speedup:
  // multi-view probe fan-out + per-shard probe cost against shard-local
  // work.
  const int customers = std::max(200, static_cast<int>(20000 * args.scale));
  const uint64_t chain_seed = args.seed * 131 + 9;
  std::vector<ExampleTable> chain_workload;
  {
    Database chain = MakeOrderChainDatabase(customers, chain_seed);
    SchemaGraph chain_graph(chain);
    Executor chain_exec(chain, chain_graph);
    EtSource::Options source_options;
    source_options.num_matrices = 4;
    source_options.min_text_cols = 3;
    source_options.min_matrix_rows = 6;
    EtSource chain_source(chain, chain_graph, chain_exec, chain_seed,
                          source_options);
    EtParams chain_params;
    chain_params.m = 2;
    chain_params.n = 2;
    chain_params.s = 0.3;
    chain_params.v = 1;
    chain_workload = chain_source.SampleMany(chain_params, args.ets_per_point,
                                             chain_seed);
  }
  std::printf(
      "\nSharded scatter-gather: %d clients replaying %zu ETs x4 over an "
      "order-chain dataset (%d components, %d rows), 4 workers, hash "
      "partitioning\n",
      kClients, chain_workload.size(), customers, customers * 10);
  std::vector<ShardedPoint> points;
  for (int shards : {1, 2, 4}) {
    points.push_back(RunSharded(shards, /*shard_seed=*/args.seed, customers,
                                chain_seed, chain_workload, /*workers=*/4,
                                /*repeat=*/4));
  }
  // Bit-identity across shard counts — the bench doubles as a differential
  // check, like the kernel A/B sweep.
  for (size_t p = 1; p < points.size(); ++p) {
    QBE_CHECK_MSG(points[p].sql == points[0].sql,
                  "sharded SQL sets differ from unsharded");
    QBE_CHECK_MSG(points[p].scores == points[0].scores,
                  "sharded scores differ from unsharded");
  }
  TablePrinter shard_table({"shards", "wall(s)", "req/s", "p50(s)<=",
                            "p99(s)<=", "probes", "skipped empty",
                            "straggler", "req/s vs 1 shard"});
  for (const ShardedPoint& point : points) {
    double speedup = points[0].run.requests_per_second > 0
                         ? point.run.requests_per_second /
                               points[0].run.requests_per_second
                         : 0.0;
    shard_table.AddRow(
        {std::to_string(point.shards), FormatDouble(point.run.seconds, 3),
         FormatDouble(point.run.requests_per_second, 1),
         FormatDouble(point.run.p50, 4), FormatDouble(point.run.p99, 4),
         std::to_string(point.probes), std::to_string(point.skipped_empty),
         point.shards > 1 ? FormatDouble(point.straggler, 3) : "n/a",
         FormatDouble(speedup, 3) + "x"});
  }
  shard_table.Print(std::cout);
  std::printf("(SQL sets and scores checked bit-identical across shard "
              "counts)\n");

  if (!shard_json_path.empty()) {
    std::ofstream json(shard_json_path);
    QBE_CHECK_MSG(static_cast<bool>(json), "cannot open --shard-json path");
    json << "{\n"
         << "  \"bench\": \"sharded_scatter_gather\",\n"
         << "  \"scale\": " << args.scale << ",\n"
         << "  \"clients\": " << kClients << ",\n"
         << "  \"workers\": 4,\n"
         << "  \"components\": " << customers << ",\n"
         << "  \"rows\": " << customers * 10 << ",\n"
         << "  \"ets\": " << chain_workload.size() << ",\n"
         << "  \"bit_identical\": true,\n"
         << "  \"req_per_s_1shard\": " << points[0].run.requests_per_second
         << ",\n"
         << "  \"req_per_s_4shard\": "
         << points.back().run.requests_per_second << ",\n"
         << "  \"speedup_4_over_1\": "
         << (points[0].run.requests_per_second > 0
                 ? points.back().run.requests_per_second /
                       points[0].run.requests_per_second
                 : 0.0)
         << ",\n"
         << "  \"points\": [\n";
    for (size_t p = 0; p < points.size(); ++p) {
      const ShardedPoint& point = points[p];
      json << "    {\"shards\": " << point.shards
           << ", \"wall_s\": " << point.run.seconds
           << ", \"req_per_s\": " << point.run.requests_per_second
           << ", \"p50_s\": " << point.run.p50
           << ", \"p99_s\": " << point.run.p99
           << ", \"probes\": " << point.probes
           << ", \"skipped_empty\": " << point.skipped_empty
           << ", \"straggler\": " << point.straggler << "}"
           << (p + 1 == points.size() ? "\n" : ",\n");
    }
    json << "  ]\n}\n";
    std::printf("wrote %s\n", shard_json_path.c_str());
  }
}

}  // namespace
}  // namespace qbe

int main(int argc, char** argv) {
  qbe::BenchArgs args =
      qbe::ParseBenchArgs(argc, argv, /*default_ets=*/10,
                          /*default_scale=*/0.2);
  // Bench-local flag (ParseBenchArgs ignores what it doesn't know): write
  // the sharded scatter-gather sweep as machine-readable JSON to this path.
  std::string shard_json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shard-json=", 13) == 0) {
      shard_json_path = argv[i] + 13;
    }
  }
  qbe::Run(args, shard_json_path);
  return 0;
}
