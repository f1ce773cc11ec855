#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/format.h"
#include "snapshot/snapshot.h"
#include "storage/database.h"
#include "util/hash64.h"

namespace qbe {
namespace {

using snapshot::FileHeader;
using snapshot::SectionEntry;
using snapshot::SectionKind;

/// Little serializer for the variable-length catalog section.
struct ByteWriter {
  std::vector<char> out;

  void U32(uint32_t v) {
    const char* p = reinterpret_cast<const char*>(&v);
    out.insert(out.end(), p, p + sizeof(v));
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
  }
};

}  // namespace

/// Befriended by Database/Relation/TextColumnStore/TokenDict/InvertedIndex:
/// serialization reads their internals directly instead of widening the
/// public API with accessors only the snapshot layer needs.
class SnapshotWriter {
 public:
  static bool Write(const Database& db, const std::string& path,
                    std::string* error);
};

bool SnapshotWriter::Write(const Database& db, const std::string& path,
                           std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (!db.built_) {
    return fail("cannot snapshot a database before BuildIndexes()");
  }

  // Temporary payloads (catalog, token arena, long-row pairs) need stable
  // addresses until the file is written; a deque never relocates elements.
  std::deque<std::vector<char>> char_bufs;
  std::deque<std::vector<uint32_t>> u32_bufs;

  struct Pending {
    SectionEntry entry;  // offset filled in during layout
    const char* data;
    size_t bytes;
  };
  std::vector<Pending> sections;
  auto add = [&](SectionKind kind, uint32_t a, uint32_t b, uint64_t elem_count,
                 const void* data, size_t bytes) {
    Pending p;
    p.entry = SectionEntry{static_cast<uint32_t>(kind), a, b, 0, 0,
                           bytes, elem_count, Hash64(data, bytes)};
    p.data = static_cast<const char*>(data);
    p.bytes = bytes;
    sections.push_back(p);
  };
  auto add_u32_buf = [&](SectionKind kind, uint32_t a, uint32_t b,
                         std::vector<uint32_t> buf) {
    u32_bufs.push_back(std::move(buf));
    const std::vector<uint32_t>& v = u32_bufs.back();
    add(kind, a, b, v.size(), v.data(), v.size() * sizeof(uint32_t));
  };

  // --- catalog -------------------------------------------------------------
  ByteWriter catalog;
  catalog.U32(static_cast<uint32_t>(db.num_relations()));
  for (int rel = 0; rel < db.num_relations(); ++rel) {
    const Relation& r = db.relation(rel);
    catalog.Str(r.name());
    catalog.U32(r.num_rows());
    catalog.U32(static_cast<uint32_t>(r.num_columns()));
    for (const ColumnDef& def : r.columns()) {
      catalog.Str(def.name);
      catalog.U32(def.type == ColumnType::kId ? 0 : 1);
    }
  }
  catalog.U32(static_cast<uint32_t>(db.fks_.size()));
  for (const ForeignKey& fk : db.fks_) {
    catalog.U32(static_cast<uint32_t>(fk.from_rel));
    catalog.U32(static_cast<uint32_t>(fk.from_col));
    catalog.U32(static_cast<uint32_t>(fk.to_rel));
    catalog.U32(static_cast<uint32_t>(fk.to_col));
  }
  catalog.U32(static_cast<uint32_t>(db.dict_->size()));
  char_bufs.push_back(std::move(catalog.out));
  add(SectionKind::kCatalog, 0, 0, char_bufs.back().size(),
      char_bufs.back().data(), char_bufs.back().size());

  // --- relation columns ----------------------------------------------------
  static const uint32_t kZeroOffset = 0;
  for (int rel = 0; rel < db.num_relations(); ++rel) {
    const Relation& r = db.relation(rel);
    for (int col = 0; col < r.num_columns(); ++col) {
      if (r.columns()[col].type == ColumnType::kId) {
        const SpanOrVec<int64_t>& ids = r.id_store_[r.slot_[col]];
        add(SectionKind::kIdColumn, rel, col, ids.size(), ids.data(),
            ids.size() * sizeof(int64_t));
      } else {
        const TextColumnStore& text = r.text_store_[r.slot_[col]];
        add(SectionKind::kTextArena, rel, col, text.arena_.size(),
            text.arena_.data(), text.arena_.size());
        if (text.offsets_.empty()) {
          // Never-appended column: normalize to the canonical rows+1 form.
          add(SectionKind::kTextOffsets, rel, col, 1, &kZeroOffset,
              sizeof(uint32_t));
        } else {
          add(SectionKind::kTextOffsets, rel, col, text.offsets_.size(),
              text.offsets_.data(), text.offsets_.size() * sizeof(uint32_t));
        }
      }
    }
  }

  // --- token dictionary arena ----------------------------------------------
  {
    std::vector<char> arena;
    std::vector<uint32_t> offsets;
    offsets.reserve(db.dict_->size() + 1);
    offsets.push_back(0);
    for (uint32_t id = 0; id < db.dict_->size(); ++id) {
      std::string_view token = db.dict_->TokenAt(id);
      arena.insert(arena.end(), token.begin(), token.end());
      offsets.push_back(static_cast<uint32_t>(arena.size()));
    }
    char_bufs.push_back(std::move(arena));
    add(SectionKind::kTokenArena, 0, 0, char_bufs.back().size(),
        char_bufs.back().data(), char_bufs.back().size());
    add_u32_buf(SectionKind::kTokenOffsets, 0, 0, std::move(offsets));
  }

  // --- per-column CSR text indexes ----------------------------------------
  for (uint32_t gid = 0; gid < db.fts_.size(); ++gid) {
    const InvertedIndex& fts = db.fts_[gid];
    add(SectionKind::kFtsPostings, gid, 0, fts.postings_.size(),
        fts.postings_.data(), fts.postings_.size() * sizeof(uint64_t));
    add(SectionKind::kFtsTokenIds, gid, 0, fts.token_ids_.size(),
        fts.token_ids_.data(), fts.token_ids_.size() * sizeof(uint32_t));
    add(SectionKind::kFtsOffsets, gid, 0, fts.offsets_.size(),
        fts.offsets_.data(), fts.offsets_.size() * sizeof(uint32_t));
    add(SectionKind::kFtsRowCounts, gid, 0, fts.row_counts_.size(),
        fts.row_counts_.data(), fts.row_counts_.size() * sizeof(uint32_t));
    add(SectionKind::kFtsSlotOfId, gid, 0, fts.slot_of_id_.size(),
        fts.slot_of_id_.data(), fts.slot_of_id_.size() * sizeof(uint32_t));
    add(SectionKind::kFtsRowTokenCounts, gid, 0, fts.row_token_counts_.size(),
        fts.row_token_counts_.data(),
        fts.row_token_counts_.size() * sizeof(uint16_t));
    std::vector<uint32_t> long_rows;
    long_rows.reserve(fts.long_rows_.size() * 2);
    for (const auto& [row, count] : fts.long_rows_) {
      long_rows.push_back(row);
      long_rows.push_back(count);
    }
    // Sort pairs by row for a deterministic (byte-reproducible) file.
    std::vector<size_t> order(long_rows.size() / 2);
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      return long_rows[2 * x] < long_rows[2 * y];
    });
    std::vector<uint32_t> sorted;
    sorted.reserve(long_rows.size());
    for (size_t i : order) {
      sorted.push_back(long_rows[2 * i]);
      sorted.push_back(long_rows[2 * i + 1]);
    }
    add_u32_buf(SectionKind::kFtsLongRows, gid, 0, std::move(sorted));
  }

  // --- per-edge join indexes ----------------------------------------------
  for (const ForeignKey& fk : db.fks_) {
    const uint32_t edge = static_cast<uint32_t>(fk.id);
    const auto& join = db.edge_join_[fk.id];
    add(SectionKind::kEdgeParentRow, edge, 0, join.parent_row.size(),
        join.parent_row.data(), join.parent_row.size() * sizeof(int32_t));
    add(SectionKind::kEdgeChildOffsets, edge, 0, join.child_offsets.size(),
        join.child_offsets.data(),
        join.child_offsets.size() * sizeof(uint32_t));
    add(SectionKind::kEdgeChildRows, edge, 0, join.child_rows.size(),
        join.child_rows.data(), join.child_rows.size() * sizeof(uint32_t));
    const SpanOrVec<uint32_t>& referenced = db.referenced_rows_[fk.id];
    add(SectionKind::kEdgeReferenced, edge, 0, referenced.size(),
        referenced.data(), referenced.size() * sizeof(uint32_t));
    const SpanOrVec<uint32_t>& valid_from = db.valid_from_rows_[fk.id];
    add(SectionKind::kEdgeValidFrom, edge, 0, valid_from.size(),
        valid_from.data(), valid_from.size() * sizeof(uint32_t));
  }
  add(SectionKind::kEdgeNoDangling, 0, 0, db.edge_no_dangling_.size(),
      db.edge_no_dangling_.data(), db.edge_no_dangling_.size());

  // --- layout and checksums ------------------------------------------------
  FileHeader header{};
  header.magic = snapshot::kMagic;
  header.version = snapshot::kVersion;
  header.endian_tag = snapshot::kEndianTag;
  header.dir_offset = sizeof(FileHeader);
  header.section_count = static_cast<uint32_t>(sections.size());
  header.page_size = snapshot::kPageSize;

  uint64_t cursor = snapshot::PageAlign(
      header.dir_offset + sections.size() * sizeof(SectionEntry));
  std::vector<SectionEntry> dir;
  dir.reserve(sections.size());
  for (Pending& p : sections) {
    p.entry.offset = cursor;
    cursor = snapshot::PageAlign(cursor + p.bytes);
    dir.push_back(p.entry);
  }
  // file_bytes ends at the last payload byte, not its page-aligned end.
  header.file_bytes = sections.empty()
                          ? header.dir_offset
                          : dir.back().offset + dir.back().bytes;
  header.dir_checksum =
      Hash64(dir.data(), dir.size() * sizeof(SectionEntry));
  header.header_checksum =
      Hash64(&header, offsetof(FileHeader, header_checksum));

  // --- write ---------------------------------------------------------------
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return fail("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(dir.data()),
            dir.size() * sizeof(SectionEntry));
  uint64_t written = header.dir_offset + dir.size() * sizeof(SectionEntry);
  static const char kPad[snapshot::kPageSize] = {};
  for (const Pending& p : sections) {
    out.write(kPad, p.entry.offset - written);
    if (p.bytes > 0) out.write(p.data, p.bytes);
    written = p.entry.offset + p.bytes;
  }
  out.flush();
  if (!out) return fail("write failed for " + path + " (disk full?)");
  return true;
}

bool WriteSnapshot(const Database& db, const std::string& path,
                   std::string* error) {
  return SnapshotWriter::Write(db, path, error);
}

}  // namespace qbe
