#include "shard/partition.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "ingest/db_view.h"
#include "util/check.h"
#include "util/hash64.h"

namespace qbe {

const char* PartitionModeName(PartitionMode mode) {
  switch (mode) {
    case PartitionMode::kHashPk: return "hash";
    case PartitionMode::kRowRange: return "range";
  }
  return "unknown";
}

std::optional<PartitionMode> ParsePartitionMode(const std::string& name) {
  if (name == "hash") return PartitionMode::kHashPk;
  if (name == "range") return PartitionMode::kRowRange;
  return std::nullopt;
}

std::vector<uint64_t> PartitionPlan::RowsPerShard() const {
  std::vector<uint64_t> rows(num_shards, 0);
  for (const auto& rel_rows : shard_of) {
    for (uint32_t s : rel_rows) rows[s] += 1;
  }
  return rows;
}

namespace {

/// Union-find with path halving over global row ids.
struct UnionFind {
  std::vector<uint32_t> parent;

  explicit UnionFind(size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0u);
  }

  uint32_t Find(uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }

  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    // Smaller root wins, so every root is also its component's minimum —
    // the canonical representative the assignment hashes.
    if (a < b) parent[b] = a;
    else parent[a] = b;
  }
};

/// The stable key a component representative hashes under kHashPk: the
/// row's declared PK value when its relation is a PK target, else its
/// first id-column value, else the row index. PK values survive row
/// reordering and ingestion, so placement is a property of the data.
int64_t RepresentativeKey(const Database& db, int rel, uint32_t row) {
  for (const ForeignKey& fk : db.foreign_keys()) {
    if (fk.to_rel == rel) return db.relation(rel).IdAt(fk.to_col, row);
  }
  const Relation& relation = db.relation(rel);
  for (int c = 0; c < relation.num_columns(); ++c) {
    if (relation.columns()[c].type == ColumnType::kId) {
      return relation.IdAt(c, row);
    }
  }
  return static_cast<int64_t>(row);
}

uint32_t HashShard(int rel, int64_t key, uint64_t seed, int num_shards) {
  int64_t buf[2] = {static_cast<int64_t>(rel), key};
  return static_cast<uint32_t>(Hash64(buf, sizeof(buf), seed) %
                               static_cast<uint64_t>(num_shards));
}

}  // namespace

PartitionPlan ComputePartitionPlan(const Database& db,
                                   const PartitionOptions& options) {
  QBE_CHECK_MSG(options.num_shards >= 1, "num_shards must be >= 1");
  const int num_rels = db.num_relations();

  PartitionPlan plan;
  plan.num_shards = options.num_shards;
  plan.mode = options.mode;
  plan.seed = options.seed;
  plan.shard_of.resize(num_rels);

  std::vector<size_t> offset(num_rels + 1, 0);
  for (int r = 0; r < num_rels; ++r) {
    offset[r + 1] = offset[r] + db.relation(r).num_rows();
    plan.shard_of[r].assign(db.relation(r).num_rows(), 0);
  }
  const size_t total = offset[num_rels];
  if (options.num_shards == 1 || total == 0) return plan;

  // Join-connected components: union every (child row, parent row) pair of
  // every FK edge. The row-level join index makes this one O(1) read per
  // child row; dangling FKs (-1) impose no constraint.
  UnionFind uf(total);
  for (const ForeignKey& fk : db.foreign_keys()) {
    const uint32_t from_rows = db.relation(fk.from_rel).num_rows();
    for (uint32_t row = 0; row < from_rows; ++row) {
      const int32_t parent = db.ParentRowOf(fk.id, row);
      if (parent >= 0) {
        uf.Union(static_cast<uint32_t>(offset[fk.from_rel] + row),
                 static_cast<uint32_t>(offset[fk.to_rel] + parent));
      }
    }
  }

  // Whole components map to shards through their representative (the
  // minimum global id, which is exactly the union-find root here).
  std::vector<uint32_t> shard_of_root(total, 0);
  if (options.mode == PartitionMode::kHashPk) {
    int rel = 0;
    for (size_t gid = 0; gid < total; ++gid) {
      if (uf.Find(static_cast<uint32_t>(gid)) != gid) continue;
      while (offset[rel + 1] <= gid) ++rel;
      const uint32_t row = static_cast<uint32_t>(gid - offset[rel]);
      shard_of_root[gid] = HashShard(rel, RepresentativeKey(db, rel, row),
                                     options.seed, options.num_shards);
    }
  } else {
    // kRowRange: components in representative order, packed into contiguous
    // row-count-balanced blocks. Components are indivisible, so shards can
    // be uneven (or empty) under heavy skew; RowsPerShard reports it.
    std::vector<uint32_t> comp_rows(total, 0);
    for (size_t gid = 0; gid < total; ++gid) {
      comp_rows[uf.Find(static_cast<uint32_t>(gid))] += 1;
    }
    uint64_t assigned = 0;
    for (size_t gid = 0; gid < total; ++gid) {
      if (uf.Find(static_cast<uint32_t>(gid)) != gid) continue;
      shard_of_root[gid] = static_cast<uint32_t>(std::min<uint64_t>(
          options.num_shards - 1,
          assigned * static_cast<uint64_t>(options.num_shards) / total));
      assigned += comp_rows[gid];
    }
  }

  for (int r = 0; r < num_rels; ++r) {
    const uint32_t rows = db.relation(r).num_rows();
    for (uint32_t row = 0; row < rows; ++row) {
      plan.shard_of[r][row] =
          shard_of_root[uf.Find(static_cast<uint32_t>(offset[r] + row))];
    }
  }
  return plan;
}

std::vector<Database> SplitDatabase(const Database& db,
                                    const PartitionPlan& plan) {
  QBE_CHECK(static_cast<int>(plan.shard_of.size()) == db.num_relations());
  std::vector<Database> shards;
  shards.reserve(plan.num_shards);
  std::vector<Value> row_values;
  for (int s = 0; s < plan.num_shards; ++s) {
    Database shard;
    for (int r = 0; r < db.num_relations(); ++r) {
      const Relation& source = db.relation(r);
      Relation out(source.name(), source.columns());
      for (uint32_t row = 0; row < source.num_rows(); ++row) {
        if (plan.shard_of[r][row] != static_cast<uint32_t>(s)) continue;
        row_values.clear();
        for (int c = 0; c < source.num_columns(); ++c) {
          if (source.columns()[c].type == ColumnType::kId) {
            row_values.emplace_back(source.IdAt(c, row));
          } else {
            row_values.emplace_back(std::string(source.TextAt(c, row)));
          }
        }
        out.AppendRow(row_values);
      }
      shard.AddRelation(std::move(out));
    }
    for (const ForeignKey& fk : db.foreign_keys()) {
      shard.AddForeignKey(
          db.relation(fk.from_rel).name(),
          db.relation(fk.from_rel).columns()[fk.from_col].name,
          db.relation(fk.to_rel).name(),
          db.relation(fk.to_rel).columns()[fk.to_col].name);
    }
    shard.BuildIndexes();
    shards.push_back(std::move(shard));
  }
  return shards;
}

namespace {

/// Shard holding a live row of `rel` whose id column `col` equals `key`,
/// or -1. Checks the base PK index first, then overlay-appended rows.
int FindShardWithLivePk(const std::vector<DbView>& views, int rel, int col,
                        int64_t key) {
  for (size_t s = 0; s < views.size(); ++s) {
    const DbView& view = views[s];
    const int64_t base_row = view.base().PkLookup(rel, col, key);
    if (base_row >= 0 &&
        view.IsLive(rel, static_cast<uint32_t>(base_row))) {
      return static_cast<int>(s);
    }
    const uint32_t base_rows = view.base().relation(rel).num_rows();
    for (uint32_t row = base_rows; row < view.TotalRows(rel); ++row) {
      if (view.IsLive(rel, row) && view.IdAt(rel, col, row) == key) {
        return static_cast<int>(s);
      }
    }
  }
  return -1;
}

/// Shard holding a live `edge`-child row whose FK value equals `key`,
/// or -1 (an orphan child appended before this parent).
int FindShardWithLiveChild(const std::vector<DbView>& views,
                           const ForeignKey& fk, int64_t key) {
  for (size_t s = 0; s < views.size(); ++s) {
    const DbView& view = views[s];
    const std::vector<uint32_t>* base_rows =
        view.base().FkLookup(fk.id, key);
    if (base_rows != nullptr) {
      for (uint32_t row : *base_rows) {
        if (view.IsLive(fk.from_rel, row)) return static_cast<int>(s);
      }
    }
    const uint32_t first_delta = view.base().relation(fk.from_rel).num_rows();
    for (uint32_t row = first_delta; row < view.TotalRows(fk.from_rel);
         ++row) {
      if (view.IsLive(fk.from_rel, row) &&
          view.IdAt(fk.from_rel, fk.from_col, row) == key) {
        return static_cast<int>(s);
      }
    }
  }
  return -1;
}

}  // namespace

int RouteAppend(const std::vector<DbView>& shard_views, int rel,
                const std::vector<Value>& values, uint64_t seed,
                std::string* error) {
  QBE_CHECK(!shard_views.empty());
  const Database& db = shard_views[0].base();
  if (rel < 0 || rel >= db.num_relations()) {
    if (error != nullptr) {
      *error = "route: relation id " + std::to_string(rel) + " out of range";
    }
    return -1;
  }
  if (values.size() != static_cast<size_t>(db.relation(rel).num_columns())) {
    if (error != nullptr) {
      *error = "route: row arity mismatch for " + db.relation(rel).name();
    }
    return -1;
  }

  // Constraints from rows already placed: the parents this row references,
  // and any live children already referencing this row's PK value.
  int constraint = -1;
  auto merge = [&](int shard, const ForeignKey& fk, const char* role) {
    if (shard < 0) return true;
    if (constraint < 0 || constraint == shard) {
      constraint = shard;
      return true;
    }
    if (error != nullptr) {
      *error = "cross-shard append to " + db.relation(rel).name() + ": " +
               role + " via edge " + fk.label + " lives in shard " +
               std::to_string(shard) + " but another relative is in shard " +
               std::to_string(constraint);
    }
    return false;
  };
  for (const ForeignKey& fk : db.foreign_keys()) {
    if (fk.from_rel == rel) {
      const int64_t key = std::get<int64_t>(values[fk.from_col]);
      if (!merge(FindShardWithLivePk(shard_views, fk.to_rel, fk.to_col, key),
                 fk, "parent")) {
        return -1;
      }
    }
    if (fk.to_rel == rel) {
      const int64_t key = std::get<int64_t>(values[fk.to_col]);
      if (!merge(FindShardWithLiveChild(shard_views, fk, key), fk, "child")) {
        return -1;
      }
    }
  }
  if (constraint >= 0) return constraint;

  // No relative exists yet: hash the row's would-be component key. A row
  // that owns a PK hashes by it — exactly where future children look; an
  // orphan child hashes by its first parent's (relation, key) — exactly
  // where that parent will land when appended. Unrelated rows spread by
  // whatever id they carry.
  for (const ForeignKey& fk : db.foreign_keys()) {
    if (fk.to_rel == rel) {
      return static_cast<int>(
          HashShard(rel, std::get<int64_t>(values[fk.to_col]), seed,
                    static_cast<int>(shard_views.size())));
    }
  }
  for (const ForeignKey& fk : db.foreign_keys()) {
    if (fk.from_rel == rel) {
      return static_cast<int>(
          HashShard(fk.to_rel, std::get<int64_t>(values[fk.from_col]), seed,
                    static_cast<int>(shard_views.size())));
    }
  }
  int64_t fallback = 0;
  for (size_t c = 0; c < values.size(); ++c) {
    if (const int64_t* id = std::get_if<int64_t>(&values[c])) {
      fallback = *id;
      break;
    }
  }
  return static_cast<int>(HashShard(
      rel, fallback, seed, static_cast<int>(shard_views.size())));
}

bool WriteShardSet(const std::string& path, const ShardSet& set,
                   std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << "qbe-shardset-v1\n";
  out << "mode " << PartitionModeName(set.mode) << "\n";
  out << "seed " << set.seed << "\n";
  for (const std::string& shard_path : set.paths) {
    out << "shard " << shard_path << "\n";
  }
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

std::optional<ShardSet> ReadShardSet(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path);
  auto fail = [&](const std::string& why) -> std::optional<ShardSet> {
    if (error != nullptr) *error = path + ": " + why;
    return std::nullopt;
  };
  if (!in) return fail("cannot open shardset manifest");
  std::string line;
  if (!std::getline(in, line) || line != "qbe-shardset-v1") {
    return fail("not a qbe-shardset-v1 manifest");
  }
  // Relative shard paths resolve against the manifest's directory.
  std::string dir;
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash + 1);

  ShardSet set;
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "mode") {
      std::string name;
      fields >> name;
      std::optional<PartitionMode> mode = ParsePartitionMode(name);
      if (!mode.has_value()) {
        return fail("line " + std::to_string(line_no) +
                    ": unknown partition mode '" + name + "'");
      }
      set.mode = *mode;
    } else if (key == "seed") {
      if (!(fields >> set.seed)) {
        return fail("line " + std::to_string(line_no) + ": bad seed");
      }
    } else if (key == "shard") {
      std::string shard_path;
      fields >> std::ws;
      std::getline(fields, shard_path);
      if (shard_path.empty()) {
        return fail("line " + std::to_string(line_no) +
                    ": shard entry with no path");
      }
      if (shard_path[0] != '/' && !dir.empty()) shard_path = dir + shard_path;
      set.paths.push_back(std::move(shard_path));
    } else {
      return fail("line " + std::to_string(line_no) + ": unknown key '" +
                  key + "'");
    }
  }
  if (set.paths.empty()) return fail("manifest lists no shards");
  return set;
}

namespace {

bool CatalogsMatch(const Database& a, const Database& b, std::string* why) {
  auto fail = [&](const std::string& reason) {
    *why = reason;
    return false;
  };
  if (a.num_relations() != b.num_relations()) {
    return fail("different relation counts");
  }
  for (int r = 0; r < a.num_relations(); ++r) {
    const Relation& ra = a.relation(r);
    const Relation& rb = b.relation(r);
    if (ra.name() != rb.name()) {
      return fail("relation " + std::to_string(r) + " named '" + ra.name() +
                  "' vs '" + rb.name() + "'");
    }
    if (ra.num_columns() != rb.num_columns()) {
      return fail("relation '" + ra.name() + "' has different column counts");
    }
    for (int c = 0; c < ra.num_columns(); ++c) {
      if (ra.columns()[c].name != rb.columns()[c].name ||
          ra.columns()[c].type != rb.columns()[c].type) {
        return fail("relation '" + ra.name() + "' column " +
                    std::to_string(c) + " differs");
      }
    }
  }
  if (a.foreign_keys().size() != b.foreign_keys().size()) {
    return fail("different foreign-key counts");
  }
  for (size_t e = 0; e < a.foreign_keys().size(); ++e) {
    const ForeignKey& fa = a.foreign_keys()[e];
    const ForeignKey& fb = b.foreign_keys()[e];
    if (fa.from_rel != fb.from_rel || fa.from_col != fb.from_col ||
        fa.to_rel != fb.to_rel || fa.to_col != fb.to_col) {
      return fail("foreign-key edge " + std::to_string(e) + " differs");
    }
  }
  return true;
}

}  // namespace

std::optional<std::vector<Database>> OpenShardSet(const ShardSet& set,
                                                  std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (set.paths.empty()) return fail("shardset names no shards");
  std::vector<Database> shards;
  shards.reserve(set.paths.size());
  for (const std::string& path : set.paths) {
    std::string why;
    std::optional<Database> db = Database::OpenSnapshot(path, &why);
    if (!db.has_value()) return fail(path + ": " + why);
    if (!shards.empty() && !CatalogsMatch(shards[0], *db, &why)) {
      return fail(path + ": catalog mismatch with shard 0 (" + why + ")");
    }
    shards.push_back(std::move(*db));
  }
  return shards;
}

}  // namespace qbe
