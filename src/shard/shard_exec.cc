#include "shard/shard_exec.h"

#include <algorithm>
#include <chrono>

#include "core/verifier.h"
#include "util/check.h"
#include "util/hash64.h"

namespace qbe {

ShardExecSet::ShardExecSet(std::span<const DbView> views,
                           const SchemaGraph& graph,
                           const ShardExecOptions& options) {
  QBE_CHECK_MSG(!views.empty(), "ShardExecSet needs at least one view");
  shards_.reserve(views.size());
  for (const DbView& view : views) {
    shards_.push_back(std::make_unique<Shard>(view, graph, options));
  }
  const int num_relations = views[0].num_relations();
  relation_versions_.resize(num_relations);
  std::vector<uint64_t> per_view(views.size());
  for (int rel = 0; rel < num_relations; ++rel) {
    bool any_nonzero = false;
    for (size_t v = 0; v < views.size(); ++v) {
      per_view[v] = views[v].RelationVersion(rel);
      any_nonzero = any_nonzero || per_view[v] != 0;
    }
    if (views.size() == 1 || !any_nonzero) {
      relation_versions_[rel] = per_view[0];
      continue;
    }
    const uint64_t word =
        Hash64(per_view.data(), per_view.size() * sizeof(uint64_t));
    relation_versions_[rel] = word == 0 ? 1 : word;
  }
}

bool ShardExecSet::Exists(const JoinTree& tree,
                          const std::vector<PhrasePredicate>& predicates,
                          TraceContext* trace, SpanRef span) const {
  owner_.Check(
      "ShardExecSet used from a second thread; a request runs on one thread");
  if (shards_.size() == 1) {
    const Shard& shard = *shards_[0];
    return shard.exec.Exists(tree, predicates, shard.memo.get(),
                             shard.match_cache.get(), trace);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    // A shard where some tree vertex has no live rows admits no witness;
    // skipping it is outcome-neutral and keeps skewed/empty shards cheap.
    bool has_empty_vertex = false;
    tree.verts.ForEach([&](int v) {
      if (shard.exec_view.LiveRows(v) == 0) has_empty_vertex = true;
    });
    if (has_empty_vertex) {
      shard.skipped_empty += 1;
      continue;
    }
    shard.probes += 1;
    if (trace != nullptr) trace->Count(TraceCounter::kShardProbes, 1);
    const auto t0 = std::chrono::steady_clock::now();
    const bool found = shard.exec.Exists(tree, predicates, shard.memo.get(),
                                         shard.match_cache.get(), trace);
    shard.busy_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (found) {
      shard.hits += 1;
      if (trace != nullptr) trace->AnnotateShard(span, static_cast<int>(s));
      return true;
    }
  }
  return false;
}

uint64_t ShardExecSet::TotalLiveRows(int rel) const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->exec_view.LiveRows(rel);
  }
  return total;
}

void ShardExecSet::AddCacheCounters(VerificationCounters* counters) const {
  for (const auto& shard : shards_) {
    if (shard->memo != nullptr) {
      counters->subtree_memo_hits += shard->memo->hits();
      counters->subtree_memo_lookups += shard->memo->lookups();
    }
    if (shard->match_cache != nullptr) {
      counters->match_cache_hits +=
          static_cast<int64_t>(shard->match_cache->hits());
      counters->match_cache_lookups +=
          static_cast<int64_t>(shard->match_cache->lookups());
    }
  }
}

ShardStats ShardExecSet::Stats() const {
  ShardStats stats;
  stats.per_shard.reserve(shards_.size());
  double max_busy = 0.0;
  double sum_busy = 0.0;
  int active = 0;
  for (const auto& shard : shards_) {
    ShardCounters c;
    c.probes = shard->probes;
    c.hits = shard->hits;
    c.skipped_empty = shard->skipped_empty;
    c.busy_seconds = static_cast<double>(shard->busy_ns) / 1e9;
    stats.per_shard.push_back(c);
    if (c.probes == 0) continue;
    max_busy = std::max(max_busy, c.busy_seconds);
    sum_busy += c.busy_seconds;
    ++active;
  }
  const double mean_busy = active == 0 ? 0.0 : sum_busy / active;
  stats.straggler_ratio = mean_busy > 0.0 ? max_busy / mean_busy : 1.0;
  return stats;
}

}  // namespace qbe
