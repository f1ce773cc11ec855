#ifndef QBE_SHARD_PARTITION_H_
#define QBE_SHARD_PARTITION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "storage/database.h"

namespace qbe {

class DbView;

/// Horizontal partitioning of a Database into shard-local databases
/// (DESIGN.md §15). The one invariant everything downstream leans on:
///
///   FK co-location — a row and every row it (transitively) joins with via
///   any FK edge land in the same shard, so no join edge ever crosses a
///   shard boundary and every join witness of an existence query lies
///   wholly inside one shard.
///
/// Rows are grouped into join-connected components (union-find over the
/// row-level join indexes, covering diamond schemas and multi-parent rows),
/// and whole components are assigned to shards — by a seeded hash of the
/// component's representative key (kHashPk: stable, skew-resistant) or by
/// contiguous balanced ranges in representative order (kRowRange: locality-
/// preserving). A component is indivisible: splitting one would sever a
/// join edge.
enum class PartitionMode { kHashPk, kRowRange };

const char* PartitionModeName(PartitionMode mode);
std::optional<PartitionMode> ParsePartitionMode(const std::string& name);

struct PartitionOptions {
  int num_shards = 1;
  PartitionMode mode = PartitionMode::kHashPk;
  /// Seed of the kHashPk placement hash (and nothing else); kRowRange is
  /// seed-independent.
  uint64_t seed = 0;
};

/// The computed row → shard assignment. Deterministic: the same database
/// and options always produce the same plan.
struct PartitionPlan {
  int num_shards = 1;
  PartitionMode mode = PartitionMode::kHashPk;
  uint64_t seed = 0;
  /// shard_of[rel][row] ∈ [0, num_shards). Empty shards are legal (e.g.
  /// one giant join component).
  std::vector<std::vector<uint32_t>> shard_of;

  /// Total rows assigned to each shard (skew diagnostics).
  std::vector<uint64_t> RowsPerShard() const;
};

/// Groups rows into join-connected components over every FK edge and
/// assigns whole components to shards. The database must have its indexes
/// built (ParentRowOf drives the union-find).
PartitionPlan ComputePartitionPlan(const Database& db,
                                   const PartitionOptions& options);

/// Materializes the plan: one self-contained Database per shard with the
/// full catalog (identical relation/column/FK ids — schema-level artifacts
/// like text-column gids and join-tree enumeration are shard-invariant),
/// each holding only its assigned rows, with indexes built. Within a shard,
/// rows keep their original relative order, so shard-local results are
/// deterministic.
std::vector<Database> SplitDatabase(const Database& db,
                                    const PartitionPlan& plan);

/// Ingest-time routing: the shard where a new `rel` row must land so FK
/// co-location is preserved across appends. Constraints come from related
/// rows already present in some shard — FK parents this row references, and
/// live child rows already referencing this row's PK value (so a parent
/// appended after its children joins them). Conflicting constraints (two
/// related rows live in different shards) return -1 with `*error` set — the
/// append must be rejected, because serving it from any single shard would
/// sever a join edge. An unconstrained row routes by a deterministic seeded
/// hash of its would-be component key, chosen so future relatives hash to
/// the same shard.
int RouteAppend(const std::vector<DbView>& shard_views, int rel,
                const std::vector<Value>& values, uint64_t seed,
                std::string* error);

/// Shardset manifest: a small text file naming the per-shard snapshot
/// files, written by `qbe_shard split` and consumed by `qbe_serve
/// --shardset`. Relative shard paths resolve against the manifest's
/// directory.
struct ShardSet {
  PartitionMode mode = PartitionMode::kHashPk;
  uint64_t seed = 0;
  std::vector<std::string> paths;

  int num_shards() const { return static_cast<int>(paths.size()); }
};

bool WriteShardSet(const std::string& path, const ShardSet& set,
                   std::string* error);
std::optional<ShardSet> ReadShardSet(const std::string& path,
                                     std::string* error);

/// Opens every snapshot the manifest names, in manifest order. Returns
/// nullopt with `*error` set when a snapshot fails to open or its catalog
/// (relations, columns, FK edges) differs from the first shard's:
/// discovery builds one schema graph for all shards, so mixed catalogs
/// must never reach it.
std::optional<std::vector<Database>> OpenShardSet(const ShardSet& set,
                                                  std::string* error);

}  // namespace qbe

#endif  // QBE_SHARD_PARTITION_H_
