#ifndef QBE_INGEST_DB_VIEW_H_
#define QBE_INGEST_DB_VIEW_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/delta.h"
#include "storage/database.h"

namespace qbe {

/// Version-aware read facade: one immutable base Database plus an optional
/// immutable DeltaView overlay. Every query kernel (executor semijoins, text
/// matching, candidate generation) reads through this instead of the
/// Database directly, so a pinned epoch — base + delta pair — behaves
/// exactly like a cold load of the merged data (DESIGN.md §12).
///
/// Cheap value type (three pointers): copy freely. With a null/empty delta
/// every method forwards straight to the base structures, keeping the
/// read-only hot path identical to the pre-ingest code.
///
/// Row ids are global: base rows [0, base_rows) then appended rows. Methods
/// returning row sets return live rows only, ascending. Span-returning join
/// reads take a caller scratch vector and alias the base arrays when the
/// overlay does not affect the edge (zero-copy on the common path).
class DbView {
 public:
  DbView() = default;
  explicit DbView(const Database& base) : base_(&base) {}
  /// `relation_versions`, when non-null, holds one version per relation
  /// (DbVersion::relation_versions); null means every relation is at 0.
  DbView(const Database& base, const DeltaView* delta,
         const uint64_t* relation_versions = nullptr)
      : base_(&base),
        delta_(delta != nullptr && !delta->empty() ? delta : nullptr),
        relation_versions_(relation_versions) {}

  const Database& base() const { return *base_; }
  const DeltaView* delta() const { return delta_; }
  /// True when reads are pure base passthrough (no overlay in effect).
  bool plain() const { return delta_ == nullptr; }

  // --- catalog (immutable across epochs; always the base's) ---------------

  int num_relations() const { return base_->num_relations(); }
  const Relation& relation(int rel) const { return base_->relation(rel); }
  const std::vector<ForeignKey>& foreign_keys() const {
    return base_->foreign_keys();
  }
  const ForeignKey& foreign_key(int edge) const {
    return base_->foreign_key(edge);
  }
  int TextColumnGid(const ColumnRef& ref) const {
    return base_->TextColumnGid(ref);
  }
  const ColumnRef& TextColumnByGid(int gid) const {
    return base_->TextColumnByGid(gid);
  }

  /// Committed appends and tombstones that have touched `rel` in the
  /// pinned live database (0 for a plain database). The eval-cache key
  /// carries it for each relation of a join tree (DESIGN.md §8).
  uint64_t RelationVersion(int rel) const {
    return relation_versions_ == nullptr ? 0 : relation_versions_[rel];
  }

  // --- rows ---------------------------------------------------------------

  /// Base + appended rows: the size of this relation's global id space
  /// (bitmap domain), dead rows included.
  uint32_t TotalRows(int rel) const {
    return delta_ == nullptr ? base_->relation(rel).num_rows()
                             : delta_->TotalRows(rel);
  }

  uint32_t LiveRows(int rel) const {
    return delta_ == nullptr ? base_->relation(rel).num_rows()
                             : delta_->rels[rel].live_rows;
  }

  bool IsLive(int rel, uint32_t row) const {
    return delta_ == nullptr || delta_->IsLive(rel, row);
  }

  // --- cell access ----------------------------------------------------------

  std::string_view TextAt(int rel, int col, uint32_t row) const;
  int64_t IdAt(int rel, int col, uint32_t row) const;

  // --- tokens ---------------------------------------------------------------

  /// Id of `token`: base dictionary first, then the overlay's delta
  /// dictionary (ids >= base size), else TokenDict::kNoToken.
  uint32_t FindToken(std::string_view token) const {
    const uint32_t id = base_->token_dict().Find(token);
    if (id != TokenDict::kNoToken || delta_ == nullptr) return id;
    return delta_->FindDeltaToken(token);
  }

  /// Maps `tokens` to ids (kNoToken for unseen), into `*out` (cleared).
  void IdsOfInto(const std::vector<std::string>& tokens,
                 std::vector<uint32_t>* out) const;

  std::vector<uint32_t> IdsOf(const std::vector<std::string>& tokens) const {
    std::vector<uint32_t> ids;
    IdsOfInto(tokens, &ids);
    return ids;
  }

  // --- text matching (live rows only, ascending global ids) -----------------

  void MatchPhraseIdsInto(const ColumnRef& col, std::span<const uint32_t> ids,
                          std::vector<uint32_t>* rows) const;
  void MatchExactIdsInto(const ColumnRef& col, std::span<const uint32_t> ids,
                         std::vector<uint32_t>* rows) const;

  /// Number of live rows whose cell contains the phrase (RankScore).
  size_t MatchCount(const ColumnRef& col, std::span<const uint32_t> ids) const;

  bool AnyMatch(const ColumnRef& col, std::span<const uint32_t> ids) const;

  // --- candidate generation -------------------------------------------------

  /// Gids of text columns with at least one row containing the phrase,
  /// ascending: the base column index's answer merged with the overlay's
  /// columns. May overreport columns whose only containing rows are
  /// tombstoned — candidate generation tolerates supersets (verification is
  /// exact); it must never underreport.
  void ColumnsContainingIdsInto(std::span<const uint32_t> ids,
                                std::vector<int>* gids) const;

  // --- joins ----------------------------------------------------------------

  /// Conservative: true only when the base guarantee holds AND the overlay
  /// does not touch this edge. False routes semijoins through
  /// ValidFromRows, which is always exact.
  bool EdgeHasNoDangling(int edge) const {
    return base_->EdgeHasNoDangling(edge) &&
           (delta_ == nullptr || !delta_->edges[edge].affected);
  }

  /// Live row of `to_rel` that `from_row` references via `edge`, or -1
  /// (dangling, or the referenced row is tombstoned and not reinserted).
  int32_t ParentRowOf(int edge, uint32_t from_row) const;

  /// Live rows of `from_rel` referencing `to_row` via `edge`, ascending.
  std::span<const uint32_t> ChildRowsOf(int edge, uint32_t to_row,
                                        std::vector<uint32_t>* scratch) const;

  /// Live rows of `from_rel` whose FK resolves to a live PK row, ascending.
  std::span<const uint32_t> ValidFromRows(int edge,
                                          std::vector<uint32_t>* scratch) const;

  /// Live rows of `to_rel` referenced by at least one live `from_rel` row,
  /// ascending distinct.
  std::span<const uint32_t> ReferencedRows(
      int edge, std::vector<uint32_t>* scratch) const;

 private:
  const Database* base_ = nullptr;
  const DeltaView* delta_ = nullptr;  // null ⇒ plain passthrough
  const uint64_t* relation_versions_ = nullptr;  // null ⇒ all 0
};

}  // namespace qbe

#endif  // QBE_INGEST_DB_VIEW_H_
