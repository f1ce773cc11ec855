// bench_snapshot_coldstart — cold-start comparison for the binary snapshot
// store (DESIGN.md §11): building the IMDB-like database from its CSV
// catalog directory (parse + tokenize + index build) vs mmap-opening a
// `.qbes` snapshot of the same database (checksum + validation scans only;
// even the key-lookup hash maps are deferred to first use).
//
// Prints both times, the on-disk sizes, and the speedup; doubles as a
// differential check by running a small discovery workload against both
// databases and requiring identical result sets.
//
//   bench_snapshot_coldstart [--ets=N] [--scale=X] [--seed=N]

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "datagen/et_gen.h"
#include "datagen/imdb_like.h"
#include "exec/executor.h"
#include "harness/experiment.h"
#include "schema/schema_graph.h"
#include "snapshot/snapshot.h"
#include "storage/catalog_io.h"
#include "storage/database.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace {

std::vector<std::string> DiscoverSqls(const qbe::Database& db,
                                      const std::vector<qbe::ExampleTable>& ets) {
  std::vector<std::string> sqls;
  for (const qbe::ExampleTable& et : ets) {
    qbe::DiscoveryResult result = qbe::DiscoverQueries(db, et, {});
    QBE_CHECK_MSG(result.ok(), "discovery failed during differential check");
    for (const auto& q : result.queries) sqls.push_back(q.sql);
  }
  std::sort(sqls.begin(), sqls.end());
  return sqls;
}

uint64_t DirectoryBytes(const std::filesystem::path& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  qbe::BenchArgs args = qbe::ParseBenchArgs(argc, argv, /*default_ets=*/4,
                                            /*default_scale=*/0.5);

  const std::filesystem::path work =
      std::filesystem::temp_directory_path() /
      ("qbe_snapshot_coldstart_" + std::to_string(args.seed));
  const std::filesystem::path csv_dir = work / "csv";
  const std::filesystem::path snap_path = work / "imdb.qbes";
  std::filesystem::create_directories(work);

  std::printf("generating imdb-like database (scale %.2f)...\n", args.scale);
  {
    qbe::Database generated =
        qbe::MakeImdbLikeDatabase({args.scale, args.seed});
    QBE_CHECK_MSG(qbe::SaveDatabase(generated, csv_dir.string()),
                  "cannot write CSV catalog directory");
  }
  const uint64_t csv_bytes = DirectoryBytes(csv_dir);

  // --- cold start 1: CSV parse + tokenize + full index build ---------------
  qbe::Stopwatch csv_timer;
  std::string error;
  std::optional<qbe::Database> from_csv =
      qbe::LoadDatabase(csv_dir.string(), &error);
  QBE_CHECK_MSG(from_csv.has_value(), error.c_str());
  const double csv_seconds = csv_timer.ElapsedSeconds();

  QBE_CHECK_MSG(qbe::WriteSnapshot(*from_csv, snap_path.string(), &error),
                error.c_str());
  const uint64_t snapshot_bytes = std::filesystem::file_size(snap_path);

  // --- cold start 2: mmap + checksums + validation scans -------------------
  // Best of three: steady-state open time with the file in page cache, the
  // case a restarting server actually sees.
  double open_seconds = 1e30;
  std::optional<qbe::Database> from_snapshot;
  for (int run = 0; run < 3; ++run) {
    qbe::Stopwatch open_timer;
    from_snapshot = qbe::Database::OpenSnapshot(snap_path.string(), &error);
    QBE_CHECK_MSG(from_snapshot.has_value(), error.c_str());
    open_seconds = std::min(open_seconds, open_timer.ElapsedSeconds());
  }

  // --- differential check: identical discovery results ---------------------
  std::vector<qbe::ExampleTable> ets;
  {
    qbe::SchemaGraph graph(*from_csv);
    qbe::Executor exec(*from_csv, graph);
    qbe::EtSource source(*from_csv, graph, exec, args.seed);
    qbe::EtParams params;
    params.m = 2;
    params.n = 2;
    params.s = 0.0;
    ets = source.SampleMany(params, args.ets_per_point, args.seed + 1);
  }
  const std::vector<std::string> csv_sqls = DiscoverSqls(*from_csv, ets);
  const std::vector<std::string> snap_sqls = DiscoverSqls(*from_snapshot, ets);
  QBE_CHECK_MSG(csv_sqls == snap_sqls,
                "snapshot-opened database returned different queries");

  const double speedup = open_seconds > 0 ? csv_seconds / open_seconds : 0.0;
  std::printf(
      "cold start, imdb-like at scale %.2f (%d relations, %d text columns):\n"
      "  CSV catalog      %8.1f MB on disk, load+index %8.3f s\n"
      "  snapshot (.qbes) %8.1f MB on disk, mmap open  %8.3f s\n"
      "  speedup: %.1fx   heap: csv %.1f MB, snapshot %.1f MB "
      "(+%.1f MB mapped)\n"
      "  differential check: %zu discovered queries identical\n",
      args.scale, from_csv->num_relations(), from_csv->TotalTextColumns(),
      static_cast<double>(csv_bytes) / 1e6, csv_seconds,
      static_cast<double>(snapshot_bytes) / 1e6, open_seconds, speedup,
      static_cast<double>(from_csv->MemoryBytes()) / 1e6,
      static_cast<double>(from_snapshot->MemoryBytes()) / 1e6,
      static_cast<double>(from_snapshot->MappedBytes()) / 1e6,
      csv_sqls.size());

  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  return 0;
}
