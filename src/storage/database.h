#ifndef QBE_STORAGE_DATABASE_H_
#define QBE_STORAGE_DATABASE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/relation.h"
#include "text/column_index.h"
#include "text/inverted_index.h"
#include "text/token_dict.h"
#include "util/mmap_file.h"
#include "util/span_or_vec.h"

namespace qbe {

class SchemaGraph;

/// A labeled foreign-key reference: `from_rel.from_col` references the
/// primary key `to_rel.to_col`. These are the directed edges of the schema
/// graph (§2.1); multiple edges between the same pair of relations are
/// allowed and distinguished by `label`.
struct ForeignKey {
  int id;
  int from_rel;
  int from_col;
  int to_rel;
  int to_col;
  std::string label;
};

/// Reference to one column of one relation.
struct ColumnRef {
  int rel = -1;
  int col = -1;

  friend bool operator==(const ColumnRef& a, const ColumnRef& b) {
    return a.rel == b.rel && a.col == b.col;
  }
  friend bool operator<(const ColumnRef& a, const ColumnRef& b) {
    return a.rel != b.rel ? a.rel < b.rel : a.col < b.col;
  }
  bool valid() const { return rel >= 0; }
};

/// The in-memory database: relation catalog, foreign keys, and the offline
/// pre-processing artifacts of §3.1 — per-text-column FTS indexes, PK/FK
/// hash indexes for efficient join execution, and the master column index
/// (CI) for candidate generation. Build the content first (AddRelation /
/// AppendRow / AddForeignKey), then call BuildIndexes() exactly once.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Registers a relation and returns its id.
  int AddRelation(Relation relation);

  /// Declares a foreign key; columns are given by name. Returns the edge id.
  int AddForeignKey(const std::string& from_rel, const std::string& from_col,
                    const std::string& to_rel, const std::string& to_col);

  /// Offline pre-processing (§3.1): PK/FK hash indexes, per-edge join
  /// statistics, FTS indexes on all text columns, and the master column
  /// index CI.
  void BuildIndexes();

  /// Zero-copy cold start: maps a `.qbes` snapshot written by
  /// WriteSnapshot (src/snapshot/) and points relation columns, the token
  /// dictionary, the CSR text indexes and the join indexes at spans into
  /// the mapping. Only the CI directory is rebuilt at load; the key-lookup
  /// hash maps are deferred to the first PkLookup/FkLookup (EnsureKeyMaps).
  /// A corrupt, truncated or version-mismatched snapshot is
  /// rejected cleanly: returns std::nullopt with a description in
  /// `*error`, never crashes. Defined in src/snapshot/reader.cc.
  static std::optional<Database> OpenSnapshot(const std::string& path,
                                              std::string* error = nullptr);

  // --- catalog ------------------------------------------------------------

  int num_relations() const { return static_cast<int>(relations_.size()); }
  const Relation& relation(int rel) const { return relations_[rel]; }
  Relation& mutable_relation(int rel) { return relations_[rel]; }
  int RelationIdByName(const std::string& name) const;

  const std::vector<ForeignKey>& foreign_keys() const { return fks_; }
  const ForeignKey& foreign_key(int edge) const { return fks_[edge]; }

  /// The schema graph of the relations and foreign keys above, built on
  /// first use (the catalog must be complete by then) and shared by every
  /// request against this database, with its join-tree catalogs.
  /// Thread-safe.
  const SchemaGraph& schema_graph() const;

  /// Total column count and text column count across all relations
  /// (the "Columns" / "Text Columns" statistics of Table 2).
  int TotalColumns() const;
  int TotalTextColumns() const { return static_cast<int>(text_cols_.size()); }

  // --- text columns and indexes -------------------------------------------

  /// Dense global id of a text column, or -1 if `ref` is not a text column.
  int TextColumnGid(const ColumnRef& ref) const;
  /// Inverse of TextColumnGid.
  const ColumnRef& TextColumnByGid(int gid) const { return text_cols_[gid]; }

  const InvertedIndex& TextIndex(const ColumnRef& ref) const;
  const ColumnIndex& column_index() const { return ci_; }

  /// The database-wide token dictionary all FTS indexes intern into (valid
  /// after BuildIndexes). Heap-allocated so its address survives moves of
  /// the Database — the indexes hold pointers into it.
  const TokenDict& token_dict() const { return *dict_; }

  /// Human-readable "Relation.Column" name.
  std::string QualifiedColumnName(const ColumnRef& ref) const;

  // --- join-support indexes (valid after BuildIndexes) ---------------------

  /// Row of `rel` whose column `col` equals `key`, or -1. Requires the
  /// column to be a declared PK target of some foreign key (unique values).
  int64_t PkLookup(int rel, int col, int64_t key) const;

  /// Rows of `foreign_key(edge).from_rel` whose FK value equals `key`.
  const std::vector<uint32_t>* FkLookup(int edge, int64_t key) const;

  /// Rows of `to_rel` referenced by at least one `from_rel` row via `edge`
  /// (sorted distinct). Backs semijoins against an unfiltered child.
  std::span<const uint32_t> ReferencedRows(int edge) const;

  /// True iff every `from_rel` row's FK value has a matching PK row
  /// (referential integrity holds for this edge).
  bool EdgeHasNoDangling(int edge) const { return edge_no_dangling_[edge]; }

  /// Rows of `from_rel` whose FK value has a matching PK row.
  std::span<const uint32_t> ValidFromRows(int edge) const;

  /// Row of `to_rel` that `from_row` references via `edge`, or -1 if the FK
  /// value is dangling. Row-level join index: O(1) array read, no key
  /// extraction or hashing — the semijoin hot path.
  int32_t ParentRowOf(int edge, uint32_t from_row) const {
    return edge_join_[edge].parent_row[from_row];
  }

  /// Rows of `from_rel` referencing `to_row` via `edge`, ascending. O(1).
  std::span<const uint32_t> ChildRowsOf(int edge, uint32_t to_row) const {
    const EdgeJoinIndex& join = edge_join_[edge];
    return std::span<const uint32_t>(
        join.child_rows.data() + join.child_offsets[to_row],
        join.child_offsets[to_row + 1] - join.child_offsets[to_row]);
  }

  size_t MemoryBytes() const;

  /// Bytes of the snapshot file this database is mapped from (0 when built
  /// from source). These bytes are file-backed and evictable — they are
  /// deliberately not part of MemoryBytes().
  size_t MappedBytes() const {
    return mapping_ != nullptr ? mapping_->size() : 0;
  }

 private:
  friend class SnapshotReader;
  friend class SnapshotWriter;

  struct PkIndex {
    std::unordered_map<int64_t, uint32_t> row_by_key;
  };
  struct FkIndex {
    std::unordered_map<int64_t, std::vector<uint32_t>> rows_by_key;
  };
  /// Row-level join index of one FK edge: both directions resolved to row
  /// indexes at build time so semijoins never touch the value-keyed hashes.
  /// SpanOrVec: owned when built, aliased into the snapshot when mapped.
  struct EdgeJoinIndex {
    SpanOrVec<int32_t> parent_row;      // from-row → to-row, -1 dangling
    SpanOrVec<uint32_t> child_offsets;  // to-row → CSR begin; to_rows+1
    SpanOrVec<uint32_t> child_rows;     // referencing from-rows, ascending
  };

  /// Builds pk_indexes_ and fk_indexes_ from the id columns. Returns false
  /// iff `reject_duplicate_pk` and a PK target column holds duplicate
  /// values (a hard error at build time); in lenient mode the first row
  /// wins. Const + mutable targets: the lazy path runs under a const
  /// Database.
  bool BuildKeyMaps(bool reject_duplicate_pk) const;

  /// Lazily builds the value-keyed hash maps behind PkLookup/FkLookup.
  /// Snapshot-opened databases skip them entirely at load time — the
  /// executor only ever touches the mapped row-level join indexes — so the
  /// per-row hashing happens on first lookup, if ever. Thread-safe.
  void EnsureKeyMaps() const;

  // Set only by the snapshot loader: the file mapping every SpanOrVec in
  // mapped mode points into. Declared first so it is destroyed after every
  // structure whose spans alias it.
  std::unique_ptr<MemMap> mapping_;

  bool built_ = false;
  std::vector<Relation> relations_;
  std::unordered_map<std::string, int> rel_by_name_;
  std::vector<ForeignKey> fks_;

  std::vector<ColumnRef> text_cols_;                    // gid -> column
  std::vector<std::vector<int>> text_gid_;              // [rel][col] -> gid
  std::unique_ptr<TokenDict> dict_;                     // shared by all fts_
  std::vector<InvertedIndex> fts_;                      // by gid
  ColumnIndex ci_;

  // Value-keyed lookup maps: built eagerly by BuildIndexes (which needs
  // them to resolve edges anyway), lazily on first use after a snapshot
  // open. `mutable` + once_flag because the lazy build runs under const;
  // the flag lives on the heap so Database stays movable.
  mutable std::unordered_map<int64_t, PkIndex> pk_indexes_;  // rel*4096+col
  mutable std::vector<FkIndex> fk_indexes_;             // by edge id
  mutable bool key_maps_built_ = false;
  mutable std::unique_ptr<std::once_flag> key_maps_once_ =
      std::make_unique<std::once_flag>();
  // Built on first schema_graph() call; shared_ptr because SchemaGraph is
  // incomplete here.
  mutable std::shared_ptr<const SchemaGraph> graph_;
  mutable std::unique_ptr<std::once_flag> graph_once_ =
      std::make_unique<std::once_flag>();
  std::vector<EdgeJoinIndex> edge_join_;                // by edge id
  std::vector<SpanOrVec<uint32_t>> referenced_rows_;    // by edge id
  std::vector<char> edge_no_dangling_;                  // by edge id
  std::vector<SpanOrVec<uint32_t>> valid_from_rows_;    // by edge id
};

}  // namespace qbe

#endif  // QBE_STORAGE_DATABASE_H_
