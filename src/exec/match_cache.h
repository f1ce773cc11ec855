#ifndef QBE_EXEC_MATCH_CACHE_H_
#define QBE_EXEC_MATCH_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace qbe {

/// Per-request cache of phrase-match results: (text column gid, exact?,
/// token ids) → sorted row set. The same handful of ET-cell phrases is
/// probed by SeedNode across thousands of candidate trees per request, so
/// the cache turns repeated posting-list scans into one shared lookup.
///
/// Not thread-safe: a request runs on one thread, and its ShardExecSet owns
/// the cache (DESIGN.md §9).
class MatchCache {
 public:
  MatchCache() = default;
  MatchCache(const MatchCache&) = delete;
  MatchCache& operator=(const MatchCache&) = delete;

  /// Returns the cached row set for (column_gid, exact, ids), computing it
  /// with `compute(std::vector<uint32_t>* out)` on miss; `compute` must
  /// write the sorted result into `out`. The reference stays valid across
  /// later lookups: the map is node-based.
  template <typename Compute>
  const std::vector<uint32_t>& GetOrCompute(int column_gid, bool exact,
                                            std::span<const uint32_t> ids,
                                            Compute&& compute) {
    ++lookups_;
    auto it = map_.find(KeyView{column_gid, exact, ids});
    if (it != map_.end()) {
      ++hits_;
      return it->second;
    }
    std::vector<uint32_t> rows;
    compute(&rows);
    return map_
        .emplace(Key{column_gid, exact,
                     std::vector<uint32_t>(ids.begin(), ids.end())},
                 std::move(rows))
        .first->second;
  }

  uint64_t hits() const { return hits_; }
  uint64_t lookups() const { return lookups_; }

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

  std::unordered_map<Key, std::vector<uint32_t>, Hash, Eq> map_;
  uint64_t hits_ = 0;
  uint64_t lookups_ = 0;
};

}  // namespace qbe

#endif  // QBE_EXEC_MATCH_CACHE_H_
