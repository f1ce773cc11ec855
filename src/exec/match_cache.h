#ifndef QBE_EXEC_MATCH_CACHE_H_
#define QBE_EXEC_MATCH_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

namespace qbe {

/// Per-request cache of phrase-match results: (text column gid, exact?,
/// token ids) → sorted row set. The same handful of ET-cell phrases is
/// probed by SeedNode across thousands of candidate trees per request, so
/// the cache turns repeated posting-list scans into one shared lookup.
///
/// Thread-safe via sharding (one mutex per shard, keyed by the key hash).
/// Values are computed OUTSIDE the shard lock and inserted idempotently: a
/// match result is a pure function of the immutable database, so when two
/// threads race on the same key both compute identical vectors and either
/// insert wins.
class MatchCache {
 public:
  explicit MatchCache(size_t shards = 16);
  MatchCache(const MatchCache&) = delete;
  MatchCache& operator=(const MatchCache&) = delete;

  /// Returns the cached row set for (column_gid, exact, ids), computing it
  /// with `compute` on miss. `compute` must write the sorted result into the
  /// vector it is handed; it may run concurrently with other computes (never
  /// under a shard lock).
  std::shared_ptr<const std::vector<uint32_t>> GetOrCompute(
      int column_gid, bool exact, std::span<const uint32_t> ids,
      const std::function<void(std::vector<uint32_t>*)>& compute);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }

 private:
  struct Key {
    int gid;
    bool exact;
    std::vector<uint32_t> ids;
  };
  struct KeyView {
    int gid;
    bool exact;
    std::span<const uint32_t> ids;
  };
  struct Hash {
    using is_transparent = void;
    static size_t Mix(int gid, bool exact, std::span<const uint32_t> ids) {
      uint64_t h = 1469598103934665603ull ^ static_cast<uint64_t>(gid) ^
                   (exact ? 0x9e3779b97f4a7c15ull : 0);
      for (uint32_t id : ids) {
        h ^= id;
        h *= 1099511628211ull;
      }
      return static_cast<size_t>(h);
    }
    size_t operator()(const Key& k) const { return Mix(k.gid, k.exact, k.ids); }
    size_t operator()(const KeyView& k) const {
      return Mix(k.gid, k.exact, k.ids);
    }
  };
  struct Eq {
    using is_transparent = void;
    static bool Same(int ag, bool ae, std::span<const uint32_t> ai, int bg,
                     bool be, std::span<const uint32_t> bi) {
      return ag == bg && ae == be && ai.size() == bi.size() &&
             std::equal(ai.begin(), ai.end(), bi.begin());
    }
    bool operator()(const Key& a, const Key& b) const {
      return Same(a.gid, a.exact, a.ids, b.gid, b.exact, b.ids);
    }
    bool operator()(const KeyView& a, const Key& b) const {
      return Same(a.gid, a.exact, a.ids, b.gid, b.exact, b.ids);
    }
    bool operator()(const Key& a, const KeyView& b) const {
      return Same(a.gid, a.exact, a.ids, b.gid, b.exact, b.ids);
    }
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<Key, std::shared_ptr<const std::vector<uint32_t>>,
                       Hash, Eq>
        map;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> lookups_{0};
};

}  // namespace qbe

#endif  // QBE_EXEC_MATCH_CACHE_H_
