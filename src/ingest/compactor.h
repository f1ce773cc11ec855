#ifndef QBE_INGEST_COMPACTOR_H_
#define QBE_INGEST_COMPACTOR_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "ingest/live_db.h"

namespace qbe {

/// Background compaction driver: polls the live database's op-log depth and
/// folds the overlay into a fresh base (+ optional snapshot refresh) once it
/// crosses the threshold. One thread; Stop() joins it. Readers are never
/// blocked by a running compaction, and writers only at its short pin and
/// install steps — it publishes a new epoch when done.
class Compactor {
 public:
  struct Options {
    /// Compact when the op log reaches this many records; must be > 0.
    size_t ops_threshold = 0;
    std::chrono::milliseconds poll_interval{200};
    /// Snapshot refresh target ("" = in-memory compaction only; required
    /// when the live database has a WAL attached).
    std::string snapshot_path;
    /// Called after each successful compaction / each failure.
    std::function<void(const CompactionStats&)> on_compaction;
    std::function<void(const std::string&)> on_error;
  };

  Compactor(LiveDatabase* live, Options options);
  ~Compactor();
  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// Stops and joins the background thread. Idempotent.
  void Stop();

 private:
  void Run();
  void MaybeCompact();

  LiveDatabase* live_;
  Options options_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace qbe

#endif  // QBE_INGEST_COMPACTOR_H_
