#ifndef QBE_INGEST_LIVE_DB_H_
#define QBE_INGEST_LIVE_DB_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ingest/db_view.h"
#include "ingest/delta.h"
#include "ingest/wal.h"
#include "storage/database.h"

namespace qbe {

class TraceContext;

/// One pinned epoch: an immutable base plus an immutable delta overlay.
/// Copying a DbVersion is an RCU-style pin — the shared_ptrs keep both
/// alive for as long as an in-flight discovery needs them, no matter how
/// many appends or compactions publish newer epochs meanwhile.
struct DbVersion {
  uint64_t epoch = 0;
  std::shared_ptr<const Database> base;
  std::shared_ptr<const DeltaView> delta;  // null ⇒ pure base

  DbView view() const { return DbView(*base, delta.get()); }
};

/// What one compaction did (service metrics / tool output).
struct CompactionStats {
  uint64_t epoch = 0;          // epoch published by the compaction
  size_t merged_appends = 0;   // ops folded into the new base
  size_t merged_tombstones = 0;
  size_t remaining_ops = 0;    // ops committed during the merge: the
                               // rebased tail left in the log
  double seconds = 0.0;
  bool snapshot_written = false;
};

/// Mutable front of the ingestion subsystem (DESIGN.md §12): validates and
/// admits appends/tombstones, logs them to an optional WAL, rebuilds the
/// immutable DeltaView, and publishes epochs with an atomic version swap.
/// Readers call Pin() and never block writers; writers are serialized.
///
/// Concurrency: `writer_mu_` serializes all mutation (Append/Tombstone/
/// AttachWal and compaction's two short ends); `version_mu_` guards only
/// the pointer swap + Pin copy, so the read path's critical section is two
/// shared_ptr copies. `compact_mu_` serializes whole folds. A fold holds
/// `writer_mu_` only to pin the epoch it folds and, after the merge, to
/// rebase the ops committed meanwhile onto the new base and install it;
/// the merge and the snapshot write run with no lock, so appends commit
/// during them. Readers are never blocked.
class LiveDatabase {
 public:
  /// Takes ownership of a built (or snapshot-opened) database as epoch 0.
  explicit LiveDatabase(Database base);

  /// Pins the current epoch. Wait-free for practical purposes (one mutex
  /// held for two pointer copies).
  DbVersion Pin() const;

  uint64_t epoch() const;
  /// Appended rows across relations in the current overlay (live or dead).
  size_t delta_rows() const;
  size_t tombstones() const;
  /// Ops in the log since the last compaction (compaction trigger input).
  size_t delta_ops() const;

  /// Validates and admits one appended row for relation `rel` (arity, cell
  /// types, and PK uniqueness against the *live* set — a tombstoned PK row
  /// can be reinserted). On success the new epoch is published before the
  /// call returns; on failure nothing changes and `*error` explains why.
  bool Append(int rel, std::vector<Value> values, std::string* error);

  /// Admits a batch under one epoch publish (one WAL sync + one overlay
  /// rebuild instead of N). All-or-nothing: the first invalid row rejects
  /// the whole batch.
  bool AppendBatch(int rel, std::vector<std::vector<Value>> rows,
                   std::string* error);

  /// Deletes the live row with global id `row` of relation `rel`.
  bool Tombstone(int rel, uint32_t row, std::string* error);

  /// Fsyncs the WAL (no-op without one). Appends are durable after Flush.
  bool Flush(std::string* error);

  /// Replays the WAL at `path` (applying its ops as the starting overlay)
  /// and arms the writer so subsequent mutations are logged. A torn final
  /// record is truncated away; a corrupt log or one inconsistent with the
  /// attached base (bad relation id, arity, type, PK duplicate, dead-row
  /// tombstone) is refused. Call once, before any mutation.
  bool AttachWal(const std::string& path, std::string* error);

  bool has_wal() const;

  /// Folds the overlay current at the call into a fresh base Database
  /// (fresh CSR text indexes, token dictionary and join indexes) in three
  /// steps (DESIGN.md §12): pin the epoch and the op count it covers under
  /// the writer lock; merge, and write the snapshot, with no lock held;
  /// then, under the writer lock again, rebase the ops committed during the
  /// merge onto the new base, rewrite the WAL to hold just that tail, and
  /// publish the new base plus the tail's overlay as the next epoch. With a
  /// non-empty `snapshot_path` the new base is also written as a `.qbes`
  /// snapshot (temp file + rename, so a mapped predecessor stays valid) —
  /// compaction doubles as snapshot refresh. When a WAL is attached a
  /// snapshot path is REQUIRED: truncating the log is only crash-safe if
  /// the merged state is durable somewhere. A no-op (returning true) on an
  /// empty overlay. Concurrent calls run one after another.
  bool Compact(const std::string& snapshot_path, std::string* error,
               CompactionStats* stats = nullptr);

  /// Arms (null = disarms) tracing of writer-side work: WAL append/sync,
  /// WAL replay, and compaction record spans into `trace` (obs/trace.h).
  /// Observation-only — published epochs and overlay contents are
  /// unaffected. Not owned; must outlive the mutations it covers.
  void set_trace(TraceContext* trace);

 private:
  friend class CompactionFoldTest;

  /// A fold in progress: the epoch it merges and how much of the op log
  /// that epoch covers. Ops past `folded_ops` form the tail.
  struct Fold {
    DbVersion pinned;
    size_t folded_ops = 0;
    size_t merged_appends = 0;
    TraceContext* trace = nullptr;
  };

  /// A fold's merged base, built with no lock held.
  struct MergedBase {
    Database base;
    /// Per relation, global row id at the fold → row id in `base`.
    std::vector<std::vector<uint32_t>> old_to_new;
    std::string snapshot_tmp;  // "" = no snapshot written
  };

  /// Fold step 1, under writer_mu_: pins the epoch to fold. False (with
  /// `*error`) on a missing snapshot path; `fold->folded_ops == 0` means
  /// there is nothing to fold.
  bool BeginFold(const std::string& snapshot_path, Fold* fold,
                 std::string* error);

  /// Fold step 2, no lock held: materializes the pinned epoch and writes
  /// it to a temp snapshot next to `snapshot_path` (when non-empty).
  bool MergeFold(const Fold& fold, const std::string& snapshot_path,
                 MergedBase* merged, std::string* error) const;

  /// Fold step 3, under writer_mu_: renames the snapshot into place,
  /// rebases the tail onto the merged base, rewrites the WAL to hold the
  /// rebased tail and publishes the new epoch.
  bool InstallFold(const Fold& fold, MergedBase merged,
                   const std::string& snapshot_path, CompactionStats* stats,
                   std::string* error);

  bool ValidateAppend(const DbView& view, int rel,
                      const std::vector<Value>& values,
                      const std::vector<WalRecord>& pending,
                      std::string* error) const;

  /// Appends `records` to the log + WAL and publishes the next epoch.
  /// Caller holds writer_mu_ and has validated every record.
  bool CommitLocked(std::vector<WalRecord> records, std::string* error);

  void Publish(DbVersion next);

  std::mutex compact_mu_;          // serializes folds (held outermost)
  mutable std::mutex writer_mu_;  // serializes all mutation
  mutable std::mutex version_mu_;  // guards current_ swap + Pin
  DbVersion current_;

  // Op log since the last compaction; guarded by writer_mu_.
  std::vector<WalRecord> ops_;
  WalWriter wal_;
  TraceContext* trace_ = nullptr;  // guarded by writer_mu_
};

/// Materializes the merged logical contents of `view` as a fresh standalone
/// Database (same catalog, live rows only, indexes rebuilt). When
/// `old_to_new` is non-null it receives, per relation, the global-row-id →
/// new-row-id map (UINT32_MAX for dead rows) — compaction uses it to
/// rebase tombstones committed during the merge. Exposed for the
/// differential tests, which compare overlay reads against exactly this
/// cold load.
Database MaterializeDatabase(
    const DbView& view, std::vector<std::vector<uint32_t>>* old_to_new = nullptr);

}  // namespace qbe

#endif  // QBE_INGEST_LIVE_DB_H_
