#include "ingest/live_db.h"

#include <algorithm>
#include <filesystem>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "snapshot/snapshot.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace qbe {

namespace {

const char* TypeName(ColumnType type) {
  return type == ColumnType::kId ? "id" : "text";
}

}  // namespace

LiveDatabase::LiveDatabase(Database base) {
  current_.epoch = 0;
  current_.relation_versions =
      std::make_shared<const std::vector<uint64_t>>(base.num_relations(), 0);
  current_.base = std::make_shared<const Database>(std::move(base));
}

DbVersion LiveDatabase::Pin() const {
  std::lock_guard<std::mutex> lock(version_mu_);
  return current_;
}

void LiveDatabase::Publish(DbVersion next) {
  std::lock_guard<std::mutex> lock(version_mu_);
  current_ = std::move(next);
}

uint64_t LiveDatabase::epoch() const { return Pin().epoch; }

size_t LiveDatabase::delta_rows() const {
  DbVersion v = Pin();
  return v.delta == nullptr ? 0 : v.delta->appended_total;
}

size_t LiveDatabase::tombstones() const {
  DbVersion v = Pin();
  return v.delta == nullptr ? 0 : v.delta->tombstones_total;
}

size_t LiveDatabase::delta_ops() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return ops_.size();
}

bool LiveDatabase::has_wal() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return wal_.is_open();
}

bool LiveDatabase::ValidateAppend(const DbView& view, int rel,
                                  const std::vector<Value>& values,
                                  const std::vector<WalRecord>& pending,
                                  std::string* error) const {
  if (rel < 0 || rel >= view.num_relations()) {
    if (error != nullptr) {
      *error = "append: relation id " + std::to_string(rel) + " out of range";
    }
    return false;
  }
  const Relation& relation = view.relation(rel);
  if (values.size() != static_cast<size_t>(relation.num_columns())) {
    if (error != nullptr) {
      *error = "append to " + relation.name() + ": got " +
               std::to_string(values.size()) + " cells, want " +
               std::to_string(relation.num_columns());
    }
    return false;
  }
  for (int c = 0; c < relation.num_columns(); ++c) {
    const ColumnDef& def = relation.columns()[c];
    const bool is_id = std::holds_alternative<int64_t>(values[c]);
    if (is_id != (def.type == ColumnType::kId)) {
      if (error != nullptr) {
        *error = "append to " + relation.name() + ": column " + def.name +
                 " wants " + TypeName(def.type) + ", got " +
                 TypeName(is_id ? ColumnType::kId : ColumnType::kText);
      }
      return false;
    }
  }
  // PK uniqueness against the LIVE set: a tombstoned PK row can be
  // reinserted (its surviving FK children are reparented by the overlay).
  for (const ForeignKey& fk : view.foreign_keys()) {
    if (fk.to_rel != rel) continue;
    const int64_t key = std::get<int64_t>(values[fk.to_col]);
    bool dup = false;
    const int64_t p = view.base().PkLookup(rel, fk.to_col, key);
    if (p >= 0 && view.IsLive(rel, static_cast<uint32_t>(p))) dup = true;
    if (!dup && view.delta() != nullptr) {
      const auto& pk_cols = view.delta()->rels[rel].pk_by_col;
      auto it = pk_cols.find(fk.to_col);
      dup = it != pk_cols.end() && it->second.count(key) != 0;
    }
    for (size_t i = 0; i < pending.size() && !dup; ++i) {
      dup = pending[i].kind == WalRecord::kAppend &&
            pending[i].rel == static_cast<uint32_t>(rel) &&
            std::get<int64_t>(pending[i].values[fk.to_col]) == key;
    }
    if (dup) {
      if (error != nullptr) {
        *error = "append to " + relation.name() + ": duplicate key " +
                 std::to_string(key) + " in PK column " +
                 relation.columns()[fk.to_col].name;
      }
      return false;
    }
  }
  return true;
}

bool LiveDatabase::CommitLocked(std::vector<WalRecord> records,
                                std::string* error) {
  if (wal_.is_open()) {
    for (const WalRecord& record : records) {
      if (!wal_.Append(record, error)) return false;
    }
    if (!wal_.Sync(error)) return false;
  }
  const size_t first = ops_.size();
  for (WalRecord& record : records) ops_.push_back(std::move(record));
  Publish(NextVersion(std::span<const WalRecord>(ops_).subspan(first)));
  return true;
}

DbVersion LiveDatabase::NextVersion(
    std::span<const WalRecord> added) const {
  DbVersion next;
  next.epoch = current_.epoch + 1;
  next.base = current_.base;
  next.delta = BuildDeltaView(*next.base, ops_, next.epoch);
  auto versions =
      std::make_shared<std::vector<uint64_t>>(*current_.relation_versions);
  for (const WalRecord& record : added) ++(*versions)[record.rel];
  next.relation_versions = std::move(versions);
  return next;
}

bool LiveDatabase::Append(int rel, std::vector<Value> values,
                          std::string* error) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (!ValidateAppend(current_.view(), rel, values, {}, error)) return false;
  WalRecord record;
  record.kind = WalRecord::kAppend;
  record.rel = static_cast<uint32_t>(rel);
  record.values = std::move(values);
  std::vector<WalRecord> batch;
  batch.push_back(std::move(record));
  return CommitLocked(std::move(batch), error);
}

bool LiveDatabase::AppendBatch(int rel, std::vector<std::vector<Value>> rows,
                               std::string* error) {
  if (rows.empty()) return true;
  std::lock_guard<std::mutex> lock(writer_mu_);
  const DbView view = current_.view();
  std::vector<WalRecord> batch;
  batch.reserve(rows.size());
  for (std::vector<Value>& values : rows) {
    if (!ValidateAppend(view, rel, values, batch, error)) return false;
    WalRecord record;
    record.kind = WalRecord::kAppend;
    record.rel = static_cast<uint32_t>(rel);
    record.values = std::move(values);
    batch.push_back(std::move(record));
  }
  return CommitLocked(std::move(batch), error);
}

bool LiveDatabase::Tombstone(int rel, uint32_t row, std::string* error) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const DbView view = current_.view();
  if (rel < 0 || rel >= view.num_relations()) {
    if (error != nullptr) {
      *error =
          "tombstone: relation id " + std::to_string(rel) + " out of range";
    }
    return false;
  }
  if (row >= view.TotalRows(rel)) {
    if (error != nullptr) {
      *error = "tombstone in " + view.relation(rel).name() + ": row " +
               std::to_string(row) + " out of range";
    }
    return false;
  }
  if (!view.IsLive(rel, row)) {
    if (error != nullptr) {
      *error = "tombstone in " + view.relation(rel).name() + ": row " +
               std::to_string(row) + " is already dead";
    }
    return false;
  }
  WalRecord record;
  record.kind = WalRecord::kTombstone;
  record.rel = static_cast<uint32_t>(rel);
  record.row = row;
  std::vector<WalRecord> batch;
  batch.push_back(std::move(record));
  return CommitLocked(std::move(batch), error);
}

bool LiveDatabase::Flush(std::string* error) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (!wal_.is_open()) return true;
  return wal_.Sync(error);
}

bool LiveDatabase::AttachWal(const std::string& path, std::string* error) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (wal_.is_open()) {
    if (error != nullptr) *error = "a WAL is already attached";
    return false;
  }
  if (!ops_.empty()) {
    if (error != nullptr) {
      *error = "cannot attach a WAL after unlogged mutations";
    }
    return false;
  }
  WalReadResult log = ReadWal(path);
  if (!log.ok) {
    if (error != nullptr) *error = log.error;
    return false;
  }

  // Replay validation: the log must be a consistent mutation history of the
  // attached base. Lightweight per-record state instead of a per-record
  // overlay rebuild — O(1) amortized per record.
  const Database& base = *current_.base;
  struct RelState {
    uint32_t appended = 0;
    std::unordered_set<uint32_t> dead;
    // pk col → live key → global row (delta rows only)
    std::unordered_map<int, std::unordered_map<int64_t, uint32_t>> pk;
  };
  std::vector<RelState> state(base.num_relations());
  std::vector<std::vector<int>> pk_cols(base.num_relations());
  for (const ForeignKey& fk : base.foreign_keys()) {
    auto& cols = pk_cols[fk.to_rel];
    if (std::find(cols.begin(), cols.end(), fk.to_col) == cols.end()) {
      cols.push_back(fk.to_col);
    }
  }
  auto reject = [&](size_t index, const std::string& why) {
    if (error != nullptr) {
      *error = "WAL " + path + ": record " + std::to_string(index) +
               " does not apply to this database: " + why;
    }
    return false;
  };
  for (size_t i = 0; i < log.records.size(); ++i) {
    const WalRecord& record = log.records[i];
    if (record.rel >= static_cast<uint32_t>(base.num_relations())) {
      return reject(i, "relation id out of range");
    }
    const int rel = static_cast<int>(record.rel);
    const Relation& relation = base.relation(rel);
    RelState& rs = state[rel];
    if (record.kind == WalRecord::kAppend) {
      if (record.values.size() != static_cast<size_t>(relation.num_columns())) {
        return reject(i, "arity mismatch for " + relation.name());
      }
      for (int c = 0; c < relation.num_columns(); ++c) {
        const bool is_id = std::holds_alternative<int64_t>(record.values[c]);
        if (is_id != (relation.columns()[c].type == ColumnType::kId)) {
          return reject(i, "cell type mismatch for " + relation.name());
        }
      }
      const uint32_t row = relation.num_rows() + rs.appended;
      for (int col : pk_cols[rel]) {
        const int64_t key = std::get<int64_t>(record.values[col]);
        const int64_t p = base.PkLookup(rel, col, key);
        const bool base_live =
            p >= 0 && rs.dead.count(static_cast<uint32_t>(p)) == 0;
        if (base_live || rs.pk[col].count(key) != 0) {
          return reject(i, "duplicate PK key in " + relation.name());
        }
        rs.pk[col][key] = row;
      }
      ++rs.appended;
    } else {
      const uint32_t total = relation.num_rows() + rs.appended;
      if (record.row >= total) {
        return reject(i, "tombstone row out of range in " + relation.name());
      }
      if (!rs.dead.insert(record.row).second) {
        return reject(i, "double tombstone in " + relation.name());
      }
      // A killed appended row releases its PK keys for reinsertion.
      for (auto& [col, keys] : rs.pk) {
        std::erase_if(keys,
                      [&](const auto& kv) { return kv.second == record.row; });
      }
    }
  }

  if (!wal_.Open(path, error)) return false;
  if (log.truncated_tail) {
    // Drop the torn bytes so future appends start at a clean frame.
    if (!wal_.Truncate(log.records, error)) return false;
  }
  if (!log.records.empty()) {
    ops_ = std::move(log.records);
    Publish(NextVersion(ops_));
  }
  return true;
}

Database MaterializeDatabase(const DbView& view,
                             std::vector<std::vector<uint32_t>>* old_to_new) {
  Database merged;
  if (old_to_new != nullptr) {
    old_to_new->assign(view.num_relations(), {});
  }
  for (int r = 0; r < view.num_relations(); ++r) {
    const Relation& src = view.relation(r);
    Relation fresh(src.name(), src.columns());
    const uint32_t total = view.TotalRows(r);
    std::vector<uint32_t>* map = nullptr;
    if (old_to_new != nullptr) {
      (*old_to_new)[r].assign(total, UINT32_MAX);
      map = &(*old_to_new)[r];
    }
    std::vector<Value> values(src.num_columns());
    uint32_t next_row = 0;
    for (uint32_t row = 0; row < total; ++row) {
      if (!view.IsLive(r, row)) continue;
      for (int c = 0; c < src.num_columns(); ++c) {
        if (src.columns()[c].type == ColumnType::kId) {
          values[c] = view.IdAt(r, c, row);
        } else {
          values[c] = std::string(view.TextAt(r, c, row));
        }
      }
      fresh.AppendRow(values);
      if (map != nullptr) (*map)[row] = next_row;
      ++next_row;
    }
    merged.AddRelation(std::move(fresh));
  }
  for (const ForeignKey& fk : view.foreign_keys()) {
    const Relation& from = view.relation(fk.from_rel);
    const Relation& to = view.relation(fk.to_rel);
    merged.AddForeignKey(from.name(), from.columns()[fk.from_col].name,
                         to.name(), to.columns()[fk.to_col].name);
  }
  merged.BuildIndexes();
  return merged;
}

bool LiveDatabase::Compact(const std::string& snapshot_path,
                           std::string* error, CompactionStats* stats) {
  std::lock_guard<std::mutex> fold_lock(compact_mu_);
  Stopwatch timer;
  Fold fold;
  if (!BeginFold(snapshot_path, &fold, error)) return false;
  if (fold.folded_ops == 0) return true;  // nothing to fold
  MergedBase merged;
  if (!MergeFold(fold, snapshot_path, &merged, error)) return false;
  if (!InstallFold(fold, std::move(merged), snapshot_path, stats, error)) {
    return false;
  }
  if (stats != nullptr) stats->seconds = timer.ElapsedSeconds();
  return true;
}

bool LiveDatabase::BeginFold(const std::string& snapshot_path, Fold* fold,
                             std::string* error) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (ops_.empty()) return true;
  if (wal_.is_open() && snapshot_path.empty()) {
    if (error != nullptr) {
      *error =
          "compaction with a WAL attached needs a snapshot path: truncating "
          "the log is only crash-safe if the merged base is durable";
    }
    return false;
  }
  fold->pinned = current_;
  fold->folded_ops = ops_.size();
  fold->merged_appends = static_cast<size_t>(
      std::count_if(ops_.begin(), ops_.end(), [](const WalRecord& op) {
        return op.kind == WalRecord::kAppend;
      }));
  return true;
}

bool LiveDatabase::MergeFold(const Fold& fold,
                             const std::string& snapshot_path,
                             MergedBase* merged, std::string* error) const {
  merged->base = MaterializeDatabase(fold.pinned.view(), &merged->old_to_new);
  if (snapshot_path.empty()) return true;
  const std::string tmp = snapshot_path + ".compact.tmp";
  if (!WriteSnapshot(merged->base, tmp, error)) return false;
  merged->snapshot_tmp = tmp;
  return true;
}

bool LiveDatabase::InstallFold(const Fold& fold, MergedBase merged,
                               const std::string& snapshot_path,
                               CompactionStats* stats, std::string* error) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (!merged.snapshot_tmp.empty()) {
    // Renamed here, right before the WAL rewrite, so the two never have an
    // append between them. A reader still mapping the previous snapshot
    // keeps its (now unlinked) inode.
    std::error_code ec;
    std::filesystem::rename(merged.snapshot_tmp, snapshot_path, ec);
    if (ec) {
      if (error != nullptr) {
        *error = "cannot rename " + merged.snapshot_tmp + " over " +
                 snapshot_path + ": " + ec.message();
      }
      return false;
    }
  }

  // Rebase the tail: ops committed after the pin name rows of the folded
  // epoch's id space. A row that existed at the fold moves to its new id;
  // a row appended since keeps its offset past the folded rows.
  std::vector<WalRecord> tail(ops_.begin() + fold.folded_ops, ops_.end());
  for (WalRecord& op : tail) {
    if (op.kind != WalRecord::kTombstone) continue;
    const std::vector<uint32_t>& map = merged.old_to_new[op.rel];
    if (op.row < map.size()) {
      op.row = map[op.row];
      // Admission refuses to tombstone a dead row, and every row dead at
      // the fold is still dead.
      QBE_CHECK(op.row != UINT32_MAX);
    } else {
      op.row = op.row - static_cast<uint32_t>(map.size()) +
               merged.base.relation(static_cast<int>(op.rel)).num_rows();
    }
  }
  if (wal_.is_open() && !wal_.Truncate(tail, error)) return false;

  DbVersion next;
  next.epoch = current_.epoch + 1;
  next.base = std::make_shared<const Database>(std::move(merged.base));
  if (!tail.empty()) next.delta = BuildDeltaView(*next.base, tail, next.epoch);
  // Same logical data, renumbered rows: every relation keeps its version,
  // the tail's bumps included.
  next.relation_versions = current_.relation_versions;
  const uint64_t published_epoch = next.epoch;
  Publish(std::move(next));
  ops_ = std::move(tail);

  if (stats != nullptr) {
    stats->epoch = published_epoch;
    stats->merged_appends = fold.merged_appends;
    stats->merged_tombstones = fold.folded_ops - fold.merged_appends;
    stats->remaining_ops = ops_.size();
    stats->snapshot_written = !merged.snapshot_tmp.empty();
  }
  return true;
}

}  // namespace qbe
