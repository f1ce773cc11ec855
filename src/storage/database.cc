#include "storage/database.h"

#include <algorithm>

#include "schema/schema_graph.h"
#include "util/check.h"

namespace qbe {
namespace {

int64_t PkIndexKey(int rel, int col) {
  return static_cast<int64_t>(rel) * 4096 + col;
}

}  // namespace

int Database::AddRelation(Relation relation) {
  QBE_CHECK(!built_);
  QBE_CHECK_MSG(rel_by_name_.find(relation.name()) == rel_by_name_.end(),
                "duplicate relation name");
  int id = static_cast<int>(relations_.size());
  rel_by_name_[relation.name()] = id;
  relations_.push_back(std::move(relation));
  return id;
}

int Database::AddForeignKey(const std::string& from_rel,
                            const std::string& from_col,
                            const std::string& to_rel,
                            const std::string& to_col) {
  QBE_CHECK(!built_);
  int fr = RelationIdByName(from_rel);
  int tr = RelationIdByName(to_rel);
  QBE_CHECK_MSG(fr >= 0, from_rel.c_str());
  QBE_CHECK_MSG(tr >= 0, to_rel.c_str());
  int fc = relations_[fr].ColumnIndexByName(from_col);
  int tc = relations_[tr].ColumnIndexByName(to_col);
  QBE_CHECK_MSG(fc >= 0, from_col.c_str());
  QBE_CHECK_MSG(tc >= 0, to_col.c_str());
  QBE_CHECK(relations_[fr].columns()[fc].type == ColumnType::kId);
  QBE_CHECK(relations_[tr].columns()[tc].type == ColumnType::kId);
  int id = static_cast<int>(fks_.size());
  fks_.push_back(ForeignKey{id, fr, fc, tr, tc, from_col});
  return id;
}

int Database::RelationIdByName(const std::string& name) const {
  auto it = rel_by_name_.find(name);
  return it == rel_by_name_.end() ? -1 : it->second;
}

int Database::TotalColumns() const {
  int n = 0;
  for (const Relation& r : relations_) n += r.num_columns();
  return n;
}

void Database::BuildIndexes() {
  QBE_CHECK(!built_);
  built_ = true;

  // Text column gids + FTS + master column index.
  text_gid_.resize(relations_.size());
  for (int rel = 0; rel < num_relations(); ++rel) {
    const Relation& r = relations_[rel];
    text_gid_[rel].assign(r.num_columns(), -1);
    for (int col = 0; col < r.num_columns(); ++col) {
      if (r.columns()[col].type != ColumnType::kText) continue;
      int gid = static_cast<int>(text_cols_.size());
      text_gid_[rel][col] = gid;
      text_cols_.push_back(ColumnRef{rel, col});
    }
  }
  dict_ = std::make_unique<TokenDict>();
  fts_.resize(text_cols_.size());
  for (int gid = 0; gid < static_cast<int>(text_cols_.size()); ++gid) {
    const ColumnRef& ref = text_cols_[gid];
    fts_[gid].Build(relations_[ref.rel].TextColumn(ref.col), dict_.get());
    ci_.RegisterColumn(gid, &fts_[gid]);
  }

  // PK/FK hash indexes on the declared key columns.
  QBE_CHECK_MSG(BuildKeyMaps(/*reject_duplicate_pk=*/true),
                "duplicate primary key value");

  // Row-level join indexes and per-edge join statistics.
  edge_join_.resize(fks_.size());
  referenced_rows_.resize(fks_.size());
  edge_no_dangling_.assign(fks_.size(), 1);
  valid_from_rows_.resize(fks_.size());
  for (const ForeignKey& fk : fks_) {
    std::span<const int64_t> values =
        relations_[fk.from_rel].IdColumn(fk.from_col);
    const PkIndex& pk = pk_indexes_.at(PkIndexKey(fk.to_rel, fk.to_col));
    EdgeJoinIndex& join = edge_join_[fk.id];
    std::vector<uint32_t>& referenced = referenced_rows_[fk.id].MutableVec();
    std::vector<uint32_t>& valid_from = valid_from_rows_[fk.id].MutableVec();
    std::vector<int32_t> parent_row(values.size(), -1);
    for (uint32_t row = 0; row < values.size(); ++row) {
      auto it = pk.row_by_key.find(values[row]);
      if (it == pk.row_by_key.end()) {
        edge_no_dangling_[fk.id] = 0;
      } else {
        parent_row[row] = static_cast<int32_t>(it->second);
        valid_from.push_back(row);
        referenced.push_back(it->second);
      }
    }
    std::sort(referenced.begin(), referenced.end());
    referenced.erase(std::unique(referenced.begin(), referenced.end()),
                     referenced.end());

    // CSR of the reverse direction (to-row → referencing rows); filling in
    // ascending from-row order leaves each span sorted.
    const size_t to_rows = relations_[fk.to_rel].num_rows();
    std::vector<uint32_t> child_offsets(to_rows + 1, 0);
    for (int32_t parent : parent_row) {
      if (parent >= 0) ++child_offsets[parent + 1];
    }
    for (size_t i = 1; i <= to_rows; ++i) {
      child_offsets[i] += child_offsets[i - 1];
    }
    std::vector<uint32_t> child_rows(child_offsets[to_rows]);
    std::vector<uint32_t> cursor(child_offsets.begin(),
                                 child_offsets.end() - 1);
    for (uint32_t row = 0; row < values.size(); ++row) {
      int32_t parent = parent_row[row];
      if (parent >= 0) child_rows[cursor[parent]++] = row;
    }
    join.parent_row = std::move(parent_row);
    join.child_offsets = std::move(child_offsets);
    join.child_rows = std::move(child_rows);
  }
}

bool Database::BuildKeyMaps(bool reject_duplicate_pk) const {
  for (const ForeignKey& fk : fks_) {
    int64_t key = PkIndexKey(fk.to_rel, fk.to_col);
    if (pk_indexes_.find(key) != pk_indexes_.end()) continue;
    PkIndex index;
    std::span<const int64_t> values =
        relations_[fk.to_rel].IdColumn(fk.to_col);
    index.row_by_key.reserve(values.size());
    for (uint32_t row = 0; row < values.size(); ++row) {
      auto [it, inserted] = index.row_by_key.emplace(values[row], row);
      if (!inserted && reject_duplicate_pk) return false;
    }
    pk_indexes_.emplace(key, std::move(index));
  }
  fk_indexes_.clear();
  fk_indexes_.resize(fks_.size());
  for (const ForeignKey& fk : fks_) {
    std::span<const int64_t> values =
        relations_[fk.from_rel].IdColumn(fk.from_col);
    FkIndex& index = fk_indexes_[fk.id];
    for (uint32_t row = 0; row < values.size(); ++row) {
      index.rows_by_key[values[row]].push_back(row);
    }
  }
  key_maps_built_ = true;
  return true;
}

void Database::EnsureKeyMaps() const {
  std::call_once(*key_maps_once_, [this] {
    // A duplicate PK in a snapshot keeps the first row: the mapped join
    // indexes are the source of truth for joins, and a crafted file must
    // never turn a lookup into a crash.
    if (!key_maps_built_) BuildKeyMaps(/*reject_duplicate_pk=*/false);
  });
}

const SchemaGraph& Database::schema_graph() const {
  std::call_once(*graph_once_,
                 [this] { graph_ = std::make_shared<SchemaGraph>(*this); });
  return *graph_;
}

int Database::TextColumnGid(const ColumnRef& ref) const {
  QBE_DCHECK(built_);
  if (ref.rel < 0 || ref.rel >= num_relations()) return -1;
  const std::vector<int>& gids = text_gid_[ref.rel];
  if (ref.col < 0 || ref.col >= static_cast<int>(gids.size())) return -1;
  return gids[ref.col];
}

const InvertedIndex& Database::TextIndex(const ColumnRef& ref) const {
  int gid = TextColumnGid(ref);
  QBE_CHECK_MSG(gid >= 0, "not a text column");
  return fts_[gid];
}

std::string Database::QualifiedColumnName(const ColumnRef& ref) const {
  return relations_[ref.rel].name() + "." +
         relations_[ref.rel].columns()[ref.col].name;
}

int64_t Database::PkLookup(int rel, int col, int64_t key) const {
  EnsureKeyMaps();
  auto it = pk_indexes_.find(PkIndexKey(rel, col));
  QBE_CHECK_MSG(it != pk_indexes_.end(), "no pk index on column");
  auto row = it->second.row_by_key.find(key);
  if (row == it->second.row_by_key.end()) return -1;
  return static_cast<int64_t>(row->second);
}

const std::vector<uint32_t>* Database::FkLookup(int edge, int64_t key) const {
  EnsureKeyMaps();
  const FkIndex& index = fk_indexes_[edge];
  auto it = index.rows_by_key.find(key);
  return it == index.rows_by_key.end() ? nullptr : &it->second;
}

std::span<const uint32_t> Database::ReferencedRows(int edge) const {
  return referenced_rows_[edge].span();
}

std::span<const uint32_t> Database::ValidFromRows(int edge) const {
  return valid_from_rows_[edge].span();
}

size_t Database::MemoryBytes() const {
  size_t bytes = 0;
  for (const Relation& r : relations_) bytes += r.MemoryBytes();
  for (const InvertedIndex& index : fts_) bytes += index.MemoryBytes();
  if (dict_ != nullptr) bytes += dict_->MemoryBytes();
  bytes += ci_.MemoryBytes();
  for (const EdgeJoinIndex& join : edge_join_) {
    bytes += join.parent_row.OwnedBytes() + join.child_offsets.OwnedBytes() +
             join.child_rows.OwnedBytes();
  }
  for (const auto& rows : referenced_rows_) bytes += rows.OwnedBytes();
  for (const auto& rows : valid_from_rows_) bytes += rows.OwnedBytes();
  return bytes;
}

}  // namespace qbe
