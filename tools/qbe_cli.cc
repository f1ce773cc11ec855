// qbe_cli — command-line query discovery over a saved database directory.
//
//   qbe_cli --db DIR --row "Mike|ThinkPad|Office" --row "Mary|iPad|"
//           [--algorithm verifyall|simpleprune|filter|filterexact|weave]
//           [--max-join-length N] [--min-row-support K]
//           [--explain] [--top N]
//   qbe_cli --snapshot FILE.qbes --row ...   mmap a qbe_snapshot build
//   qbe_cli --demo DIR      write the Figure 1 retailer database to DIR
//
// Each --row is one example row of `|`-separated cells. The widest row sets
// the column count (at most 32); shorter rows are padded with empty cells.
//
// The database directory is the SaveDatabase/LoadDatabase format: one CSV
// per relation plus a schema.manifest declaring column types and foreign
// keys (hand-editable; see storage/catalog_io.h).

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "core/explain.h"
#include "datagen/retailer.h"
#include "service/serve_args.h"
#include "storage/catalog_io.h"
#include "util/string_util.h"

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: qbe_cli --db DIR --row \"cell|cell|...\" [--row ...]\n"
      "               [--algorithm "
      "verifyall|simpleprune|filter|filterexact|weave]\n"
      "               [--max-join-length N] [--min-row-support K]\n"
      "               [--explain] [--top N]\n"
      "       qbe_cli --snapshot FILE.qbes --row ...\n"
      "       qbe_cli --demo DIR\n");
}

/// A decimal int ≥ `min`, or nullopt (absent, non-numeric, trailing junk,
/// out of range).
std::optional<int> ParseIntAtLeast(const char* text, int min) {
  if (text == nullptr) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || value < min ||
      value > INT_MAX) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_dir;
  std::string snapshot_path;
  std::string demo_dir;
  std::vector<std::vector<std::string>> rows;
  qbe::DiscoveryOptions options;
  bool explain = false;
  size_t top = 10;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--db") {
      if (const char* v = next()) db_dir = v;
    } else if (arg == "--snapshot") {
      if (const char* v = next()) snapshot_path = v;
    } else if (arg == "--demo") {
      if (const char* v = next()) demo_dir = v;
    } else if (arg == "--row") {
      if (const char* v = next()) rows.push_back(qbe::SplitString(v, '|'));
      constexpr size_t kMaxCells = qbe::ExampleTable::kMaxColumns;
      if (!rows.empty() && rows.back().size() > kMaxCells) {
        std::fprintf(stderr, "--row has %zu cells; at most %zu are supported\n",
                     rows.back().size(), kMaxCells);
        return 2;
      }
    } else if (arg == "--algorithm") {
      const char* v = next();
      std::optional<qbe::Algorithm> algo =
          v ? qbe::ParseAlgorithmName(v) : std::nullopt;
      if (!algo.has_value()) {
        std::fprintf(stderr, "unknown algorithm\n");
        return 2;
      }
      options.algorithm = *algo;
    } else if (arg == "--max-join-length") {
      std::optional<int> l = ParseIntAtLeast(next(), 1);
      if (!l.has_value()) {
        std::fprintf(stderr, "--max-join-length needs a positive integer\n");
        return 2;
      }
      options.max_join_tree_size = *l;
    } else if (arg == "--min-row-support") {
      std::optional<int> k = ParseIntAtLeast(next(), 0);
      if (!k.has_value()) {
        std::fprintf(stderr,
                     "--min-row-support needs a non-negative integer\n");
        return 2;
      }
      options.min_row_support = *k;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--top") {
      std::optional<int> n = ParseIntAtLeast(next(), 0);
      if (!n.has_value()) {
        std::fprintf(stderr, "--top needs a non-negative integer\n");
        return 2;
      }
      top = static_cast<size_t>(*n);
    } else {
      PrintUsage();
      return 2;
    }
  }

  if (!demo_dir.empty()) {
    qbe::Database db = qbe::MakeRetailerDatabase();
    if (!qbe::SaveDatabase(db, demo_dir)) {
      std::fprintf(stderr, "failed to write %s\n", demo_dir.c_str());
      return 1;
    }
    std::printf("wrote the Figure 1 retailer database to %s\n"
                "try: qbe_cli --db %s --row \"Mike|ThinkPad|Office\" "
                "--row \"Mary|iPad|\" --row \"Bob||Dropbox\"\n",
                demo_dir.c_str(), demo_dir.c_str());
    return 0;
  }

  if ((db_dir.empty() && snapshot_path.empty()) || rows.empty()) {
    PrintUsage();
    return 2;
  }
  std::string load_error;
  std::optional<qbe::Database> db =
      snapshot_path.empty() ? qbe::LoadDatabase(db_dir, &load_error)
                            : qbe::Database::OpenSnapshot(snapshot_path,
                                                          &load_error);
  if (!db.has_value()) {
    std::fprintf(stderr, "failed to load database: %s\n", load_error.c_str());
    return 1;
  }
  std::printf("loaded %d relations, %zu foreign keys, %d text columns\n",
              db->num_relations(), db->foreign_keys().size(),
              db->TotalTextColumns());

  // The widest row sets the column count; shorter rows get empty cells.
  size_t width = 0;
  for (const std::vector<std::string>& row : rows) {
    width = std::max(width, row.size());
  }
  qbe::ExampleTable et =
      qbe::ExampleTable::WithColumns(static_cast<int>(width));
  for (std::vector<std::string>& row : rows) {
    row.resize(width);
    et.AddRow(row);
  }

  if (explain) {
    qbe::DiscoveryExplain report = qbe::ExplainDiscovery(*db, et, options);
    if (!report.ok()) {
      std::fprintf(stderr, "error: %s\n", report.error.c_str());
      return 1;
    }
    std::printf("%s", report.ToString().c_str());
    return 0;
  }
  qbe::DiscoveryResult result = qbe::DiscoverQueries(*db, et, options);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("%zu candidates, %lld verifications, %zu valid queries\n",
              result.num_candidates,
              static_cast<long long>(result.counters.verifications),
              result.queries.size());
  for (size_t i = 0; i < result.queries.size() && i < top; ++i) {
    std::printf("[%zu] score=%.3f rows=%d\n    %s\n", i,
                result.queries[i].score, result.queries[i].matched_rows,
                result.queries[i].sql.c_str());
  }
  return 0;
}
