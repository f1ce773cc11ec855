#include "service/concurrent_eval_cache.h"

#include <functional>
#include <utility>

#include "util/check.h"

namespace qbe {
namespace {

/// Heap bytes one entry costs beyond its key's characters: the hash node
/// (next pointer, key string object, outcome, cached hash) and its share
/// of the bucket array.
constexpr size_t kEntryOverhead = sizeof(void*) +
                                  sizeof(std::pair<const std::string, bool>) +
                                  sizeof(size_t) + sizeof(void*);

size_t EntryBytes(const std::string& key) {
  return key.capacity() + kEntryOverhead;
}

}  // namespace

ConcurrentEvalCache::ConcurrentEvalCache(size_t num_shards) {
  QBE_CHECK(num_shards > 0);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ConcurrentEvalCache::Shard& ConcurrentEvalCache::ShardFor(
    const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::unordered_map<std::string, bool>::iterator
ConcurrentEvalCache::Shard::Promote(const std::string& key) {
  auto old = previous.outcomes.find(key);
  if (old == previous.outcomes.end()) return current.outcomes.end();
  const size_t entry_bytes = EntryBytes(old->first);
  previous.bytes -= entry_bytes;
  current.bytes += entry_bytes;
  return current.outcomes.insert(previous.outcomes.extract(old)).position;
}

std::optional<bool> ConcurrentEvalCache::Lookup(const std::string& key) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.current.outcomes.find(key);
  if (it == shard.current.outcomes.end()) it = shard.Promote(key);
  if (it == shard.current.outcomes.end()) return std::nullopt;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void ConcurrentEvalCache::Insert(const std::string& key, bool outcome) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  // A key held by previous is never also in current, so checking previous
  // first keeps one entry per key.
  if (shard.Promote(key) != shard.current.outcomes.end()) return;
  auto [it, inserted] = shard.current.outcomes.try_emplace(key, outcome);
  if (inserted) shard.current.bytes += EntryBytes(it->first);
}

void ConcurrentEvalCache::StartGeneration() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    Generation dropped;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      dropped = std::move(shard->previous);
      shard->previous = std::move(shard->current);
      shard->current = Generation{};
    }
    // `dropped` frees its entries here, outside the shard lock.
  }
}

size_t ConcurrentEvalCache::size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->current.outcomes.size() + shard->previous.outcomes.size();
  }
  return total;
}

size_t ConcurrentEvalCache::bytes() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->current.bytes + shard->previous.bytes;
  }
  return total;
}

double ConcurrentEvalCache::HitRate() const {
  int64_t total = lookups();
  return total == 0 ? 0.0
                    : static_cast<double>(hits()) / static_cast<double>(total);
}

}  // namespace qbe
