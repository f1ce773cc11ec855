#ifndef QBE_CORE_EVAL_CACHE_H_
#define QBE_CORE_EVAL_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "exec/predicate.h"
#include "schema/join_tree.h"
#include "storage/database.h"
#include "util/hash128.h"
#include "util/owner_thread.h"

namespace qbe {

/// Identity of one logical existence query (DESIGN.md §8): a 128-bit hash
/// of the join tree's vertex and edge bitsets, the version of each of the
/// tree's relations, and the sorted (text-column gid, exact flag, phrase
/// fingerprint) triples of its predicates. Two existence queries share a
/// key exactly when all of these agree, up to a 128-bit hash collision.
/// An outcome reads only the tree's own relations, so a mutation of any
/// other relation leaves the key, and the cached outcome, in place.
/// Nothing in it depends on token ids or row ids, so one query has one key
/// over any dictionary, compaction, or shard count of unmutated data.
using EvalCacheKey = Hash128;

/// Builds the key without allocating. `relation_versions` holds one word
/// per relation id (ShardExecSet::relation_versions); empty means every
/// relation is at version 0, as in a plain database. Predicates whose
/// `fingerprint` is unset (all zero) are fingerprinted from their tokens
/// here.
EvalCacheKey MakeEvalCacheKey(const Database& db, const JoinTree& tree,
                              const std::vector<PhrasePredicate>& predicates,
                              std::span<const uint64_t> relation_versions);

/// Flat open-addressing map from EvalCacheKey to a verification outcome:
/// one array of (key, outcome) slots, linear probing from the key's low
/// bits, at most half full. Keys are already uniform hashes, so they index
/// the array directly. Not thread-safe.
class OutcomeTable {
 public:
  /// The outcome stored for `key`, or nullopt.
  std::optional<bool> Find(const EvalCacheKey& key) const;

  /// Stores `outcome` for `key` unless it already holds one (first insert
  /// wins); returns whether it stored.
  bool Insert(const EvalCacheKey& key, bool outcome);

  /// Removes `key`'s entry and returns its outcome, or nullopt.
  std::optional<bool> Take(const EvalCacheKey& key);

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  /// Heap bytes of the slot array.
  size_t bytes() const { return slots_.size() * sizeof(Slot); }

 private:
  enum State : uint8_t { kEmpty = 0, kFalse, kTrue };

  struct Slot {
    EvalCacheKey key;
    State state = kEmpty;
  };

  static constexpr size_t kMinCapacity = 16;

  size_t Home(const EvalCacheKey& key) const {
    return key.lo & (slots_.size() - 1);
  }
  /// Index of `key`'s slot, or of the empty slot that ends its probe
  /// sequence. Requires a non-empty array.
  size_t Probe(const EvalCacheKey& key) const;
  /// Doubles the slot array (kMinCapacity when empty) and reinserts.
  void Grow();

  std::vector<Slot> slots_;  // size is 0 or a power of two
  size_t size_ = 0;
};

/// Cross-run cache of verification outcomes. A filter's result is fully
/// determined by its join tree and predicate set (the ET row is only a
/// source of predicate values), so outcomes can be reused across reruns,
/// across incremental discovery steps (DiscoverySession: adding a new ET
/// row leaves every prior row's evaluations valid), and across concurrent
/// requests over the same database (§5's filter sharing, lifted from one
/// run to the whole serving process).
///
/// Implementations: EvalCache below (single-threaded), and
/// ConcurrentEvalCache in src/service/concurrent_eval_cache.h (sharded,
/// thread-safe, shared by DiscoveryService workers).
class EvalCacheBase {
 public:
  virtual ~EvalCacheBase() = default;

  /// The cached outcome for `key`, or nullopt. Counts nothing: a request
  /// tallies its own traffic and adds it once with AddTraffic.
  virtual std::optional<bool> Find(const EvalCacheKey& key) = 0;

  virtual void Insert(const EvalCacheKey& key, bool outcome) = 0;

  /// Adds `lookups` lookups, `hits` of which found an entry, to the totals.
  virtual void AddTraffic(int64_t hits, int64_t lookups) = 0;

  /// Find counted on the spot as one lookup, and one hit when found.
  std::optional<bool> Lookup(const EvalCacheKey& key) {
    std::optional<bool> found = Find(key);
    AddTraffic(found.has_value() ? 1 : 0, 1);
    return found;
  }

  /// Lookups served from the cache / total lookups / entries stored.
  virtual int64_t hits() const = 0;
  virtual int64_t lookups() const = 0;
  virtual size_t size() const = 0;
};

/// Single-threaded EvalCacheBase backed by one OutcomeTable. NOT
/// thread-safe: the first thread to use it pins it, and a use from any
/// other thread fails a QBE_CHECK (util/owner_thread.h). Concurrent sessions
/// must share a ConcurrentEvalCache instead.
class EvalCache : public EvalCacheBase {
 public:
  std::optional<bool> Find(const EvalCacheKey& key) override {
    owner_.Check(kOwnerMessage);
    return outcomes_.Find(key);
  }

  void Insert(const EvalCacheKey& key, bool outcome) override {
    owner_.Check(kOwnerMessage);
    outcomes_.Insert(key, outcome);
  }

  void AddTraffic(int64_t hits, int64_t lookups) override {
    owner_.Check(kOwnerMessage);
    hits_ += hits;
    lookups_ += lookups;
  }

  int64_t hits() const override { return hits_; }
  int64_t lookups() const override { return lookups_; }
  size_t size() const override { return outcomes_.size(); }

 private:
  static constexpr char kOwnerMessage[] =
      "EvalCache used from a second thread; share a ConcurrentEvalCache "
      "across threads instead";

  OutcomeTable outcomes_;
  int64_t hits_ = 0;
  int64_t lookups_ = 0;
  OwnerThread owner_;
};

}  // namespace qbe

#endif  // QBE_CORE_EVAL_CACHE_H_
