#ifndef QBE_SNAPSHOT_FORMAT_H_
#define QBE_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace qbe {
namespace snapshot {

// On-disk layout of a `.qbes` database snapshot (DESIGN.md §11):
//
//   [FileHeader 64B][SectionEntry × section_count][pad][section 0][pad]...
//
// Every section payload starts on a kPageSize boundary, so any array of
// trivially-copyable elements in the file is suitably aligned for a direct
// reinterpret into the mmap (uint64 postings need 8-byte alignment; a page
// boundary gives 4096). Each section carries an XXH64 checksum of its
// payload; the header and directory carry their own. The header records
// the writer's endianness — snapshots are not byte-swapped on load, a
// mismatched reader rejects the file instead.

inline constexpr uint64_t kMagic = 0x3150414E53454251ULL;  // "QBESNAP1"
// Version 2 dropped the per-foreign-key distinct-value count from the
// catalog section; a version 1 file is refused as version skew.
inline constexpr uint32_t kVersion = 2;
inline constexpr uint32_t kEndianTag = 0x01020304;
inline constexpr uint32_t kPageSize = 4096;

enum class SectionKind : uint32_t {
  kCatalog = 1,      // schema: relations, columns, row counts, foreign keys
  kIdColumn = 2,     // a=rel b=col; int64[rows]
  kTextArena = 3,    // a=rel b=col; char[arena_bytes] (cell bytes, packed)
  kTextOffsets = 4,  // a=rel b=col; uint32[rows+1] cell boundaries
  kTokenArena = 5,   // char[]: TokenDict spellings, id order, packed
  kTokenOffsets = 6,       // uint32[tokens+1] token boundaries
  kFtsPostings = 7,        // a=gid; uint64[]: (row<<32|pos) CSR payload
  kFtsTokenIds = 8,        // a=gid; uint32[slots]: slot → token id, ascending
  kFtsOffsets = 9,         // a=gid; uint32[slots+1]: slot → posting begin
  kFtsRowCounts = 10,      // a=gid; uint32[slots]: distinct-row counts
  kFtsSlotOfId = 11,       // a=gid; uint32[dict] dense map, or empty
  kFtsRowTokenCounts = 12, // a=gid; uint16[rows] clamped token counts
  kFtsLongRows = 13,       // a=gid; uint32 pairs (row, count) overflow
  kEdgeParentRow = 14,     // a=edge; int32[from_rows], -1 = dangling
  kEdgeChildOffsets = 15,  // a=edge; uint32[to_rows+1] CSR begin
  kEdgeChildRows = 16,     // a=edge; uint32[] referencing rows, ascending
  kEdgeReferenced = 17,    // a=edge; uint32[] referenced to-rows, sorted
  kEdgeValidFrom = 18,     // a=edge; uint32[] non-dangling from-rows, sorted
  kEdgeNoDangling = 19,    // uint8[num_edges] referential-integrity flags
};

/// Fixed 64-byte file header at offset 0.
struct FileHeader {
  uint64_t magic;
  uint32_t version;
  uint32_t endian_tag;
  uint64_t file_bytes;      // total snapshot size; mismatch = truncation
  uint64_t dir_offset;      // byte offset of the section directory
  uint32_t section_count;
  uint32_t page_size;       // alignment the writer used (kPageSize)
  uint64_t dir_checksum;    // Hash64 of the directory array
  uint64_t reserved;        // zero; room for future flags
  uint64_t header_checksum; // Hash64 of the 56 bytes preceding this field
};
static_assert(sizeof(FileHeader) == 64, "header layout is part of the format");

/// One directory row. (kind, a, b, c) identifies the section's role: `a`
/// carries the relation/gid/edge id and `b` the column id where relevant.
struct SectionEntry {
  uint32_t kind;
  uint32_t a;
  uint32_t b;
  uint32_t c;          // zero; reserved
  uint64_t offset;     // payload byte offset (page-aligned)
  uint64_t bytes;      // payload byte length
  uint64_t elem_count; // number of elements (bytes / element size)
  uint64_t checksum;   // Hash64 of the payload bytes
};
static_assert(sizeof(SectionEntry) == 48, "entry layout is part of the format");

inline const char* SectionKindName(uint32_t kind) {
  switch (static_cast<SectionKind>(kind)) {
    case SectionKind::kCatalog: return "catalog";
    case SectionKind::kIdColumn: return "id_column";
    case SectionKind::kTextArena: return "text_arena";
    case SectionKind::kTextOffsets: return "text_offsets";
    case SectionKind::kTokenArena: return "token_arena";
    case SectionKind::kTokenOffsets: return "token_offsets";
    case SectionKind::kFtsPostings: return "fts_postings";
    case SectionKind::kFtsTokenIds: return "fts_token_ids";
    case SectionKind::kFtsOffsets: return "fts_offsets";
    case SectionKind::kFtsRowCounts: return "fts_row_counts";
    case SectionKind::kFtsSlotOfId: return "fts_slot_of_id";
    case SectionKind::kFtsRowTokenCounts: return "fts_row_token_counts";
    case SectionKind::kFtsLongRows: return "fts_long_rows";
    case SectionKind::kEdgeParentRow: return "edge_parent_row";
    case SectionKind::kEdgeChildOffsets: return "edge_child_offsets";
    case SectionKind::kEdgeChildRows: return "edge_child_rows";
    case SectionKind::kEdgeReferenced: return "edge_referenced";
    case SectionKind::kEdgeValidFrom: return "edge_valid_from";
    case SectionKind::kEdgeNoDangling: return "edge_no_dangling";
  }
  return "unknown";
}

inline uint64_t PageAlign(uint64_t offset) {
  return (offset + kPageSize - 1) & ~static_cast<uint64_t>(kPageSize - 1);
}

}  // namespace snapshot
}  // namespace qbe

#endif  // QBE_SNAPSHOT_FORMAT_H_
