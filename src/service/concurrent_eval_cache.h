#ifndef QBE_SERVICE_CONCURRENT_EVAL_CACHE_H_
#define QBE_SERVICE_CONCURRENT_EVAL_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>

#include "core/eval_cache.h"

namespace qbe {

/// Thread-safe EvalCacheBase: the outcomes are split into shards chosen by
/// the key's high bits, each behind its own mutex, so concurrent discovery
/// requests contend only when their keys land on one shard. One instance
/// is shared by every worker of a DiscoveryService — a verification
/// outcome computed for any request is served to all later requests over
/// the same database, which lifts the paper's §5 filter sharing from one
/// run to the whole serving process.
///
/// Entries live in two generations, current and previous (DESIGN.md §8),
/// each a flat OutcomeTable per shard. Insert writes to current; Find
/// probes current, then previous, and moves a hit found in previous into
/// current. StartGeneration drops previous and demotes current, so the
/// cache holds only outcomes inserted or hit since the rotation before
/// last. The service rotates on every fold, or on every publish when it
/// runs without background compaction: keys carry the versions of their
/// tree's relations, so only an append or tombstone of one of those
/// relations retires an entry, and a fold (which keeps every version)
/// retires none. A retired entry can only be hit by requests still pinned
/// to its versions, and dropping any entry costs at most a miss.
/// Correctness never depends on what is retained.
///
/// hits/lookups are relaxed atomics, cumulative across rotations, and
/// advance once per request (AddTraffic): exact totals of finished
/// requests, no ordering guarantees against concurrent Insert.
class ConcurrentEvalCache : public EvalCacheBase {
 public:
  /// Lock shards: enough that a handful of workers rarely meet on one.
  static constexpr size_t kNumShards = 16;

  std::optional<bool> Find(const EvalCacheKey& key) override;
  /// First insert wins, in either generation: inserting a key held by
  /// previous moves that entry into current instead.
  void Insert(const EvalCacheKey& key, bool outcome) override;
  void AddTraffic(int64_t hits, int64_t lookups) override {
    hits_.fetch_add(hits, std::memory_order_relaxed);
    lookups_.fetch_add(lookups, std::memory_order_relaxed);
  }

  /// Frees the previous generation and demotes the current one to
  /// previous. Safe to call concurrently with Find and Insert.
  void StartGeneration();

  int64_t hits() const override {
    return hits_.load(std::memory_order_relaxed);
  }
  int64_t lookups() const override {
    return lookups_.load(std::memory_order_relaxed);
  }
  /// Entries in both generations.
  size_t size() const override;

  /// Heap bytes of both generations' slot arrays (table capacity, not
  /// entry count: a table is at most half full).
  size_t bytes() const;

  /// Fraction of lookups served from the cache; 0 before any lookup.
  double HitRate() const;

 private:
  /// Cache-line aligned so neighbouring shards' locks never share a line.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    OutcomeTable current;   // guarded by mu
    OutcomeTable previous;  // guarded by mu

    /// Moves `key`'s entry from previous into current and returns its
    /// outcome; nullopt if previous does not hold `key`. Requires mu.
    std::optional<bool> Promote(const EvalCacheKey& key);
  };

  Shard& ShardFor(const EvalCacheKey& key);

  std::array<Shard, kNumShards> shards_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> lookups_{0};
};

}  // namespace qbe

#endif  // QBE_SERVICE_CONCURRENT_EVAL_CACHE_H_
