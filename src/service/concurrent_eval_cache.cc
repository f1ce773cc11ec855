#include "service/concurrent_eval_cache.h"

#include <utility>

namespace qbe {

ConcurrentEvalCache::Shard& ConcurrentEvalCache::ShardFor(
    const EvalCacheKey& key) {
  // The key is a uniform hash: its high word picks the shard (multiply-
  // shift range reduction) and its low word the slot within the shard's
  // tables, so the two choices use disjoint bits.
  const size_t shard = static_cast<size_t>(
      (static_cast<unsigned __int128>(key.hi) * kNumShards) >> 64);
  return shards_[shard];
}

std::optional<bool> ConcurrentEvalCache::Shard::Promote(
    const EvalCacheKey& key) {
  std::optional<bool> outcome = previous.Take(key);
  if (outcome.has_value()) current.Insert(key, *outcome);
  return outcome;
}

std::optional<bool> ConcurrentEvalCache::Find(const EvalCacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::optional<bool> outcome = shard.current.Find(key);
  if (!outcome.has_value()) outcome = shard.Promote(key);
  return outcome;
}

void ConcurrentEvalCache::Insert(const EvalCacheKey& key, bool outcome) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  // A key held by previous is never also in current, so checking previous
  // first keeps one entry per key.
  if (shard.Promote(key).has_value()) return;
  shard.current.Insert(key, outcome);
}

void ConcurrentEvalCache::StartGeneration() {
  for (Shard& shard : shards_) {
    OutcomeTable dropped;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      dropped = std::move(shard.previous);
      shard.previous = std::move(shard.current);
      shard.current = OutcomeTable{};
    }
    // `dropped` frees its slots here, outside the shard lock.
  }
}

size_t ConcurrentEvalCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.current.size() + shard.previous.size();
  }
  return total;
}

size_t ConcurrentEvalCache::bytes() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.current.bytes() + shard.previous.bytes();
  }
  return total;
}

double ConcurrentEvalCache::HitRate() const {
  int64_t total = lookups();
  return total == 0 ? 0.0
                    : static_cast<double>(hits()) / static_cast<double>(total);
}

}  // namespace qbe
