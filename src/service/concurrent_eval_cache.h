#ifndef QBE_SERVICE_CONCURRENT_EVAL_CACHE_H_
#define QBE_SERVICE_CONCURRENT_EVAL_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/verifier.h"

namespace qbe {

/// Thread-safe EvalCacheBase: the outcome map is split into hash-selected
/// shards, each behind its own mutex, so concurrent discovery requests
/// contend only when their keys collide on a shard. One instance is shared
/// by every worker of a DiscoveryService — a verification outcome computed
/// for any request is served to all later requests over the same database,
/// which lifts the paper's §5 filter sharing from one run to the whole
/// serving process.
///
/// Entries live in two generations, current and previous (DESIGN.md §8).
/// Insert writes to current; Lookup probes current, then previous, and
/// moves a hit found in previous into current. StartGeneration drops
/// previous and demotes current, so the cache holds only outcomes inserted
/// or hit since the rotation before last. The service rotates on every
/// epoch publish: keys carry the data epoch, so entries of a superseded
/// epoch can only be hit by requests still pinned to it, and dropping them
/// costs at most a miss. Correctness never depends on what is retained.
///
/// hits/lookups are relaxed atomics and cumulative across rotations: exact
/// totals, no ordering guarantees against concurrent Insert.
class ConcurrentEvalCache : public EvalCacheBase {
 public:
  explicit ConcurrentEvalCache(size_t num_shards = 16);

  std::optional<bool> Lookup(const std::string& key) override;
  /// First insert wins, in either generation: inserting a key held by
  /// previous moves that entry into current instead.
  void Insert(const std::string& key, bool outcome) override;

  /// Frees the previous generation and demotes the current one to
  /// previous. Safe to call concurrently with Lookup and Insert.
  void StartGeneration();

  int64_t hits() const override {
    return hits_.load(std::memory_order_relaxed);
  }
  int64_t lookups() const override {
    return lookups_.load(std::memory_order_relaxed);
  }
  /// Entries in both generations.
  size_t size() const override;

  /// Estimated heap footprint of both generations: each entry's key
  /// capacity plus a fixed per-entry node overhead.
  size_t bytes() const;

  /// Fraction of lookups served from the cache; 0 before any lookup.
  double HitRate() const;

  size_t num_shards() const { return shards_.size(); }

 private:
  struct Generation {
    std::unordered_map<std::string, bool> outcomes;
    size_t bytes = 0;  // sum of EntryBytes over `outcomes`
  };

  struct Shard {
    std::mutex mu;
    Generation current;   // guarded by mu
    Generation previous;  // guarded by mu

    /// Moves `key`'s entry from `previous` into `current` and returns it
    /// there; current.outcomes.end() if `previous` does not hold `key`.
    /// Requires mu.
    std::unordered_map<std::string, bool>::iterator Promote(
        const std::string& key);
  };

  Shard& ShardFor(const std::string& key);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> lookups_{0};
};

}  // namespace qbe

#endif  // QBE_SERVICE_CONCURRENT_EVAL_CACHE_H_
