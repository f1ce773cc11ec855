// Sharded scatter-gather sweep (DESIGN.md §15): 8 client threads replay an
// ET workload against one DiscoveryService over a decomposable order-chain
// dataset partitioned into 1/2/4 shards, and the bench reports throughput,
// latency quantiles and the scatter-gather counters per shard count. Every
// point QBE_CHECKs that its SQL sets and scores are bit-identical to the
// one-shard point. The single-shard serving metrics (throughput, exact
// latency quantiles, live-write mix, tracing overhead) are perfbench's
// (BENCHMARK.json).

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"

#include "datagen/et_gen.h"
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
  double seconds = 0;
  double requests_per_second = 0;
  double p50 = 0;
  double p99 = 0;
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

  point.seconds = wall.ElapsedSeconds();
  double total = static_cast<double>(kClients) * repeat *
                 static_cast<double>(workload.size());
  point.requests_per_second =
      point.seconds > 0 ? total / point.seconds : 0.0;
  Histogram& latency = service.metrics().GetHistogram(
      "latency_seconds", ExponentialBuckets(1e-4, 2.0, 21));
  point.p50 = latency.Quantile(0.5);
  point.p99 = latency.Quantile(0.99);
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

void Run(const BenchArgs& args) {
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
      "Sharded scatter-gather: %d clients replaying %zu ETs x4 over an "
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
    double speedup = points[0].requests_per_second > 0
                         ? point.requests_per_second /
                               points[0].requests_per_second
                         : 0.0;
    shard_table.AddRow(
        {std::to_string(point.shards), FormatDouble(point.seconds, 3),
         FormatDouble(point.requests_per_second, 1),
         FormatDouble(point.p50, 4), FormatDouble(point.p99, 4),
         std::to_string(point.probes), std::to_string(point.skipped_empty),
         point.shards > 1 ? FormatDouble(point.straggler, 3) : "n/a",
         FormatDouble(speedup, 3) + "x"});
  }
  shard_table.Print(std::cout);
  std::printf("(SQL sets and scores checked bit-identical across shard "
              "counts)\n");
}

}  // namespace
}  // namespace qbe

int main(int argc, char** argv) {
  qbe::BenchArgs args =
      qbe::ParseBenchArgs(argc, argv, /*default_ets=*/10,
                          /*default_scale=*/0.2);
  qbe::Run(args);
  return 0;
}
