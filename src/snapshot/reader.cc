#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "snapshot/format.h"
#include "snapshot/snapshot.h"
#include "storage/database.h"
#include "util/hash64.h"
#include "util/mmap_file.h"

namespace qbe {
namespace {

using snapshot::FileHeader;
using snapshot::SectionEntry;
using snapshot::SectionKind;

/// Bounds-checked deserializer for the catalog section. Every read can
/// fail; the caller checks and rejects the file — never trusts a length.
struct Cursor {
  const char* p;
  const char* end;

  bool U32(uint32_t* v) {
    if (end - p < static_cast<ptrdiff_t>(sizeof(*v))) return false;
    std::memcpy(v, p, sizeof(*v));
    p += sizeof(*v);
    return true;
  }
  bool Str(std::string* s) {
    uint32_t n = 0;
    if (!U32(&n)) return false;
    if (static_cast<size_t>(end - p) < n) return false;
    s->assign(p, n);
    p += n;
    return true;
  }
};

std::string Desc(SectionKind kind, uint32_t a, uint32_t b) {
  std::string s = snapshot::SectionKindName(static_cast<uint32_t>(kind));
  s += "[" + std::to_string(a) + "," + std::to_string(b) + "]";
  return s;
}

/// Directory lookup + typed span extraction with alignment and size checks.
struct SectionMap {
  const char* base = nullptr;
  std::map<std::tuple<uint32_t, uint32_t, uint32_t>, const SectionEntry*>
      by_key;
  std::string why;

  bool Build(const std::vector<SectionEntry>& dir) {
    for (const SectionEntry& e : dir) {
      if (!by_key.emplace(std::make_tuple(e.kind, e.a, e.b), &e).second) {
        why = "duplicate section " +
              Desc(static_cast<SectionKind>(e.kind), e.a, e.b);
        return false;
      }
    }
    return true;
  }

  template <typename T>
  bool Get(SectionKind kind, uint32_t a, uint32_t b,
           std::span<const T>* out) {
    auto it = by_key.find(
        std::make_tuple(static_cast<uint32_t>(kind), a, b));
    if (it == by_key.end()) {
      why = "missing section " + Desc(kind, a, b);
      return false;
    }
    const SectionEntry& e = *it->second;
    if (e.bytes % sizeof(T) != 0 || e.elem_count != e.bytes / sizeof(T)) {
      why = "section " + Desc(kind, a, b) + " has a malformed size";
      return false;
    }
    if (e.offset % alignof(T) != 0) {
      why = "section " + Desc(kind, a, b) + " is misaligned";
      return false;
    }
    *out = std::span<const T>(reinterpret_cast<const T*>(base + e.offset),
                              e.elem_count);
    return true;
  }
};

bool NonDecreasingFromZero(std::span<const uint32_t> v) {
  if (v.empty() || v[0] != 0) return false;
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[i - 1]) return false;
  }
  return true;
}

bool StrictlyAscendingBelow(std::span<const uint32_t> v, uint32_t limit) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] >= limit) return false;
    if (i > 0 && v[i] <= v[i - 1]) return false;
  }
  return true;
}

}  // namespace

/// Befriended by the storage/text classes: the loader installs mapped spans
/// directly into their private SpanOrVec storage.
class SnapshotReader {
 public:
  static std::optional<Database> Open(const std::string& path,
                                      std::string* error);
  static bool Verify(const std::string& path, std::string* error);
  static std::optional<SnapshotFileInfo> Info(const std::string& path,
                                              std::string* error);

 private:
  /// Header, directory and (optionally) payload checksum validation —
  /// everything shared by Open, Verify and Info. Returns false with a
  /// description of the first problem found.
  static bool CheckFile(const MemMap& map, bool hash_payloads,
                        FileHeader* header, std::vector<SectionEntry>* dir,
                        std::string* why);
};

bool SnapshotReader::CheckFile(const MemMap& map, bool hash_payloads,
                               FileHeader* header,
                               std::vector<SectionEntry>* dir,
                               std::string* why) {
  if (map.size() < sizeof(FileHeader)) {
    *why = "file too small to hold a snapshot header (truncated?)";
    return false;
  }
  std::memcpy(header, map.data(), sizeof(FileHeader));
  if (header->magic != snapshot::kMagic) {
    *why = "not a qbe snapshot (bad magic)";
    return false;
  }
  if (Hash64(header, offsetof(FileHeader, header_checksum)) !=
      header->header_checksum) {
    *why = "header checksum mismatch (corrupt header)";
    return false;
  }
  if (header->version != snapshot::kVersion) {
    *why = "unsupported snapshot version " + std::to_string(header->version) +
           " (this build reads version " + std::to_string(snapshot::kVersion) +
           ")";
    return false;
  }
  if (header->endian_tag != snapshot::kEndianTag) {
    *why = "snapshot was written on a machine with different endianness";
    return false;
  }
  if (header->file_bytes != map.size()) {
    *why = "file size mismatch: header records " +
           std::to_string(header->file_bytes) + " bytes but the file has " +
           std::to_string(map.size()) + " (truncated?)";
    return false;
  }
  const uint64_t dir_bytes =
      static_cast<uint64_t>(header->section_count) * sizeof(SectionEntry);
  if (header->dir_offset > map.size() ||
      dir_bytes > map.size() - header->dir_offset) {
    *why = "section directory out of bounds (truncated?)";
    return false;
  }
  dir->resize(header->section_count);
  std::memcpy(dir->data(), map.data() + header->dir_offset, dir_bytes);
  if (Hash64(dir->data(), dir_bytes) != header->dir_checksum) {
    *why = "section directory checksum mismatch";
    return false;
  }
  for (const SectionEntry& e : *dir) {
    const std::string name =
        Desc(static_cast<SectionKind>(e.kind), e.a, e.b);
    if (e.offset > map.size() || e.bytes > map.size() - e.offset) {
      *why = "section " + name + " out of bounds (truncated?)";
      return false;
    }
    if (hash_payloads && Hash64(map.data() + e.offset, e.bytes) != e.checksum) {
      *why = "checksum mismatch in section " + name;
      return false;
    }
  }
  return true;
}

std::optional<Database> SnapshotReader::Open(const std::string& path,
                                             std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<Database> {
    if (error != nullptr) *error = path + ": " + why;
    return std::nullopt;
  };
  std::string map_error;
  std::optional<MemMap> map = MemMap::Open(path, &map_error);
  if (!map.has_value()) {
    if (error != nullptr) *error = map_error;
    return std::nullopt;
  }
  FileHeader header;
  std::vector<SectionEntry> dir;
  std::string why;
  if (!CheckFile(*map, /*hash_payloads=*/true, &header, &dir, &why)) {
    return fail(why);
  }

  // The mapping moves into the Database up front: every span created below
  // points into memory the Database now owns (and destroys last).
  Database db;
  db.mapping_ = std::make_unique<MemMap>(std::move(*map));

  SectionMap smap;
  smap.base = db.mapping_->data();
  if (!smap.Build(dir)) return fail(smap.why);

  // --- catalog -------------------------------------------------------------
  std::span<const char> cat;
  if (!smap.Get(SectionKind::kCatalog, 0, 0, &cat)) return fail(smap.why);
  Cursor cur{cat.data(), cat.data() + cat.size()};

  uint32_t num_rels = 0;
  if (!cur.U32(&num_rels) || num_rels > 65535) {
    return fail("catalog: bad relation count");
  }
  for (uint32_t rel = 0; rel < num_rels; ++rel) {
    std::string rel_name;
    uint32_t rows = 0, num_cols = 0;
    if (!cur.Str(&rel_name) || !cur.U32(&rows) || !cur.U32(&num_cols) ||
        num_cols == 0 || num_cols >= 4096) {
      return fail("catalog: malformed relation entry");
    }
    std::vector<ColumnDef> defs;
    defs.reserve(num_cols);
    for (uint32_t col = 0; col < num_cols; ++col) {
      std::string col_name;
      uint32_t type = 0;
      if (!cur.Str(&col_name) || !cur.U32(&type) || type > 1) {
        return fail("catalog: malformed column entry");
      }
      defs.push_back(ColumnDef{
          std::move(col_name), type == 0 ? ColumnType::kId : ColumnType::kText});
    }
    if (db.RelationIdByName(rel_name) >= 0) {
      return fail("catalog: duplicate relation '" + rel_name + "'");
    }
    Relation r(std::move(rel_name), std::move(defs));
    for (uint32_t col = 0; col < num_cols; ++col) {
      if (r.columns()[col].type == ColumnType::kId) {
        std::span<const int64_t> ids;
        if (!smap.Get(SectionKind::kIdColumn, rel, col, &ids)) {
          return fail(smap.why);
        }
        if (ids.size() != rows) {
          return fail("id column section " + Desc(SectionKind::kIdColumn, rel,
                                                  col) +
                      " does not match the catalog row count");
        }
        r.id_store_[r.slot_[col]] = SpanOrVec<int64_t>::Mapped(ids);
      } else {
        std::span<const char> arena;
        std::span<const uint32_t> offsets;
        if (!smap.Get(SectionKind::kTextArena, rel, col, &arena) ||
            !smap.Get(SectionKind::kTextOffsets, rel, col, &offsets)) {
          return fail(smap.why);
        }
        if (offsets.size() != static_cast<size_t>(rows) + 1 ||
            !NonDecreasingFromZero(offsets) ||
            offsets.back() != arena.size()) {
          return fail("text column section " +
                      Desc(SectionKind::kTextOffsets, rel, col) +
                      " has inconsistent cell boundaries");
        }
        TextColumnStore& store = r.text_store_[r.slot_[col]];
        store.arena_ = SpanOrVec<char>::Mapped(arena);
        store.offsets_ = SpanOrVec<uint32_t>::Mapped(offsets);
      }
    }
    r.num_rows_ = rows;
    db.AddRelation(std::move(r));
  }

  uint32_t num_fks = 0;
  if (!cur.U32(&num_fks) || num_fks > 1000000) {
    return fail("catalog: bad foreign key count");
  }
  for (uint32_t i = 0; i < num_fks; ++i) {
    uint32_t from_rel = 0, from_col = 0, to_rel = 0, to_col = 0;
    if (!cur.U32(&from_rel) || !cur.U32(&from_col) || !cur.U32(&to_rel) ||
        !cur.U32(&to_col)) {
      return fail("catalog: malformed foreign key entry");
    }
    auto valid_key_col = [&](uint32_t rel, uint32_t col) {
      return rel < num_rels &&
             col < static_cast<uint32_t>(db.relation(rel).num_columns()) &&
             db.relation(rel).columns()[col].type == ColumnType::kId;
    };
    if (!valid_key_col(from_rel, from_col) || !valid_key_col(to_rel, to_col)) {
      return fail("catalog: foreign key references a non-id column");
    }
    db.fks_.push_back(ForeignKey{
        static_cast<int>(i), static_cast<int>(from_rel),
        static_cast<int>(from_col), static_cast<int>(to_rel),
        static_cast<int>(to_col),
        db.relation(from_rel).columns()[from_col].name});
  }
  uint32_t token_count = 0;
  if (!cur.U32(&token_count)) return fail("catalog: missing token count");

  // --- token dictionary ----------------------------------------------------
  std::span<const char> token_arena;
  std::span<const uint32_t> token_offsets;
  if (!smap.Get(SectionKind::kTokenArena, 0, 0, &token_arena) ||
      !smap.Get(SectionKind::kTokenOffsets, 0, 0, &token_offsets)) {
    return fail(smap.why);
  }
  if (token_offsets.size() != static_cast<size_t>(token_count) + 1 ||
      !NonDecreasingFromZero(token_offsets) ||
      token_offsets.back() != token_arena.size()) {
    return fail("token dictionary sections have inconsistent boundaries");
  }
  db.dict_ = std::make_unique<TokenDict>();
  db.dict_->LoadMappedArena(token_arena, token_offsets);

  // --- per-column CSR text indexes (mirrors BuildIndexes' gid assignment) --
  db.text_gid_.resize(db.relations_.size());
  for (int rel = 0; rel < db.num_relations(); ++rel) {
    const Relation& r = db.relation(rel);
    db.text_gid_[rel].assign(r.num_columns(), -1);
    for (int col = 0; col < r.num_columns(); ++col) {
      if (r.columns()[col].type != ColumnType::kText) continue;
      db.text_gid_[rel][col] = static_cast<int>(db.text_cols_.size());
      db.text_cols_.push_back(ColumnRef{rel, col});
    }
  }
  db.fts_.resize(db.text_cols_.size());
  for (uint32_t gid = 0; gid < db.text_cols_.size(); ++gid) {
    const ColumnRef& ref = db.text_cols_[gid];
    const uint32_t rows = db.relation(ref.rel).num_rows();
    std::span<const uint64_t> postings;
    std::span<const uint32_t> token_ids, offsets, row_counts, slot_of_id;
    std::span<const uint16_t> row_token_counts;
    std::span<const uint32_t> long_rows;
    if (!smap.Get(SectionKind::kFtsPostings, gid, 0, &postings) ||
        !smap.Get(SectionKind::kFtsTokenIds, gid, 0, &token_ids) ||
        !smap.Get(SectionKind::kFtsOffsets, gid, 0, &offsets) ||
        !smap.Get(SectionKind::kFtsRowCounts, gid, 0, &row_counts) ||
        !smap.Get(SectionKind::kFtsSlotOfId, gid, 0, &slot_of_id) ||
        !smap.Get(SectionKind::kFtsRowTokenCounts, gid, 0,
                  &row_token_counts) ||
        !smap.Get(SectionKind::kFtsLongRows, gid, 0, &long_rows)) {
      return fail(smap.why);
    }
    const size_t slots = token_ids.size();
    const std::string where = " in text index " + std::to_string(gid);
    if (offsets.size() != slots + 1 || !NonDecreasingFromZero(offsets) ||
        offsets.back() != postings.size()) {
      return fail("inconsistent CSR offsets" + where);
    }
    if (row_counts.size() != slots) {
      return fail("inconsistent row-count table" + where);
    }
    if (!StrictlyAscendingBelow(token_ids,
                                static_cast<uint32_t>(db.dict_->size()))) {
      return fail("token id table not ascending" + where);
    }
    // The dense table is sized to the dictionary as of this column's build
    // (the shared dict keeps growing afterwards), so <= is the invariant;
    // SlotOf treats ids past the end as absent.
    if (slot_of_id.size() > db.dict_->size()) {
      return fail("dense slot table has wrong size" + where);
    }
    for (uint32_t s : slot_of_id) {
      if (s != UINT32_MAX && s >= slots) {
        return fail("dense slot table entry out of range" + where);
      }
    }
    if (row_token_counts.size() != rows) {
      return fail("row token-count table has wrong size" + where);
    }
    if (long_rows.size() % 2 != 0) {
      return fail("long-row overflow table malformed" + where);
    }
    for (size_t i = 0; i + 1 < long_rows.size(); i += 2) {
      if (long_rows[i] >= rows) {
        return fail("long-row overflow entry out of range" + where);
      }
    }
    for (uint64_t p : postings) {
      if (static_cast<uint32_t>(p >> 32) >= rows) {
        return fail("posting row out of range" + where);
      }
    }
    db.fts_[gid].LoadMapped(
        db.dict_.get(), rows, SpanOrVec<uint64_t>::Mapped(postings),
        SpanOrVec<uint32_t>::Mapped(token_ids),
        SpanOrVec<uint32_t>::Mapped(offsets),
        SpanOrVec<uint32_t>::Mapped(row_counts),
        SpanOrVec<uint32_t>::Mapped(slot_of_id),
        SpanOrVec<uint16_t>::Mapped(row_token_counts), long_rows);
    db.ci_.RegisterColumn(static_cast<int>(gid), &db.fts_[gid]);
  }

  // --- per-edge join indexes ----------------------------------------------
  db.edge_join_.resize(db.fks_.size());
  db.referenced_rows_.resize(db.fks_.size());
  db.valid_from_rows_.resize(db.fks_.size());
  for (const ForeignKey& fk : db.fks_) {
    const uint32_t edge = static_cast<uint32_t>(fk.id);
    const uint32_t from_rows = db.relation(fk.from_rel).num_rows();
    const uint32_t to_rows = db.relation(fk.to_rel).num_rows();
    std::span<const int32_t> parent_row;
    std::span<const uint32_t> child_offsets, child_rows, referenced,
        valid_from;
    if (!smap.Get(SectionKind::kEdgeParentRow, edge, 0, &parent_row) ||
        !smap.Get(SectionKind::kEdgeChildOffsets, edge, 0, &child_offsets) ||
        !smap.Get(SectionKind::kEdgeChildRows, edge, 0, &child_rows) ||
        !smap.Get(SectionKind::kEdgeReferenced, edge, 0, &referenced) ||
        !smap.Get(SectionKind::kEdgeValidFrom, edge, 0, &valid_from)) {
      return fail(smap.why);
    }
    const std::string where = " in join index of edge " + std::to_string(edge);
    if (parent_row.size() != from_rows) {
      return fail("parent-row table has wrong size" + where);
    }
    for (int32_t parent : parent_row) {
      if (parent < -1 || parent >= static_cast<int32_t>(to_rows)) {
        return fail("parent-row entry out of range" + where);
      }
    }
    if (child_offsets.size() != static_cast<size_t>(to_rows) + 1 ||
        !NonDecreasingFromZero(child_offsets) ||
        child_offsets.back() != child_rows.size()) {
      return fail("inconsistent child CSR offsets" + where);
    }
    for (uint32_t row : child_rows) {
      if (row >= from_rows) {
        return fail("child-row entry out of range" + where);
      }
    }
    if (!StrictlyAscendingBelow(referenced, to_rows)) {
      return fail("referenced-row table not ascending" + where);
    }
    if (!StrictlyAscendingBelow(valid_from, from_rows)) {
      return fail("valid-from-row table not ascending" + where);
    }
    db.edge_join_[edge].parent_row = SpanOrVec<int32_t>::Mapped(parent_row);
    db.edge_join_[edge].child_offsets =
        SpanOrVec<uint32_t>::Mapped(child_offsets);
    db.edge_join_[edge].child_rows = SpanOrVec<uint32_t>::Mapped(child_rows);
    db.referenced_rows_[edge] = SpanOrVec<uint32_t>::Mapped(referenced);
    db.valid_from_rows_[edge] = SpanOrVec<uint32_t>::Mapped(valid_from);
  }
  std::span<const char> no_dangling;
  if (!smap.Get(SectionKind::kEdgeNoDangling, 0, 0, &no_dangling)) {
    return fail(smap.why);
  }
  if (no_dangling.size() != db.fks_.size()) {
    return fail("referential-integrity flag table has wrong size");
  }
  db.edge_no_dangling_.assign(no_dangling.begin(), no_dangling.end());

  // The value-keyed PK/FK hash maps are NOT rebuilt here: discovery only
  // touches the mapped row-level join indexes, so Database builds them
  // lazily on the first PkLookup/FkLookup instead (EnsureKeyMaps).
  db.built_ = true;
  return db;
}

bool SnapshotReader::Verify(const std::string& path, std::string* error) {
  std::string map_error;
  std::optional<MemMap> map = MemMap::Open(path, &map_error);
  if (!map.has_value()) {
    if (error != nullptr) *error = map_error;
    return false;
  }
  FileHeader header;
  std::vector<SectionEntry> dir;
  std::string why;
  if (!CheckFile(*map, /*hash_payloads=*/true, &header, &dir, &why)) {
    if (error != nullptr) *error = path + ": " + why;
    return false;
  }
  return true;
}

std::optional<SnapshotFileInfo> SnapshotReader::Info(const std::string& path,
                                                     std::string* error) {
  std::string map_error;
  std::optional<MemMap> map = MemMap::Open(path, &map_error);
  if (!map.has_value()) {
    if (error != nullptr) *error = map_error;
    return std::nullopt;
  }
  FileHeader header;
  std::vector<SectionEntry> dir;
  std::string why;
  if (!CheckFile(*map, /*hash_payloads=*/false, &header, &dir, &why)) {
    if (error != nullptr) *error = path + ": " + why;
    return std::nullopt;
  }
  SnapshotFileInfo info;
  info.version = header.version;
  info.page_size = header.page_size;
  info.file_bytes = header.file_bytes;
  info.sections.reserve(dir.size());
  for (const SectionEntry& e : dir) {
    info.sections.push_back(SnapshotSectionInfo{
        snapshot::SectionKindName(e.kind), e.kind, e.a, e.b, e.offset,
        e.bytes, e.elem_count, e.checksum});
  }
  return info;
}

std::optional<Database> Database::OpenSnapshot(const std::string& path,
                                              std::string* error) {
  return SnapshotReader::Open(path, error);
}

bool VerifySnapshot(const std::string& path, std::string* error) {
  return SnapshotReader::Verify(path, error);
}

std::optional<SnapshotFileInfo> ReadSnapshotInfo(const std::string& path,
                                                 std::string* error) {
  return SnapshotReader::Info(path, error);
}

}  // namespace qbe
