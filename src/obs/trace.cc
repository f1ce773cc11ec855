#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/check.h"

namespace qbe {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr size_t kNumCounters =
    static_cast<size_t>(TraceCounter::kNumCounters);

// Thread-local cache of the last (context, lane) pairing so a worker that
// records thousands of spans for one request resolves its lane with one
// integer compare instead of a mutex-guarded map lookup. Keyed on the
// context's process-unique generation, NOT its address: a freed context's
// address can be reused by the next request's context while this thread
// still holds the old lane pointer (generation 0 is never assigned).
struct LaneCacheEntry {
  uint64_t generation = 0;
  void* lane = nullptr;
};
thread_local LaneCacheEntry t_lane_cache;

std::atomic<uint64_t> g_next_generation{1};

inline SpanRef PackRef(uint32_t lane, uint32_t index) {
  return (lane << 20) | (index + 1);
}
inline uint32_t RefLane(SpanRef ref) { return ref >> 20; }
inline uint32_t RefIndex(SpanRef ref) { return (ref & 0xFFFFF) - 1; }

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kCandidateGen: return "candidate_gen";
    case SpanKind::kEtTokenResolve: return "et_token_resolve";
    case SpanKind::kVerifyAll: return "verify:verifyall";
    case SpanKind::kSimplePrune: return "verify:simpleprune";
    case SpanKind::kFilter: return "verify:filter";
    case SpanKind::kFilterExact: return "verify:filterexact";
    case SpanKind::kWeave: return "verify:weave";
    case SpanKind::kRelaxedVerify: return "verify:relaxed";
    case SpanKind::kRank: return "rank";
    case SpanKind::kEvalExec: return "eval_exec";
    case SpanKind::kEvalCacheKey: return "cache_key";
    case SpanKind::kEvalCacheLookup: return "eval_cache_lookup";
    case SpanKind::kTextMatch: return "text_match";
    case SpanKind::kWalAppend: return "wal_append";
    case SpanKind::kWalReplay: return "wal_replay";
    case SpanKind::kCompaction: return "compaction";
    case SpanKind::kNetRead: return "net_read";
    case SpanKind::kNetWrite: return "net_write";
    case SpanKind::kNumKinds: break;
  }
  return "unknown";
}

const char* TraceCounterName(TraceCounter counter) {
  switch (counter) {
    case TraceCounter::kCandidatesGenerated: return "candidates_generated";
    case TraceCounter::kQueriesVerified: return "queries_verified";
    case TraceCounter::kValidQueries: return "valid_queries";
    case TraceCounter::kEvalCacheHits: return "eval_cache_hits";
    case TraceCounter::kEvalCacheLookups: return "eval_cache_lookups";
    case TraceCounter::kMatchCacheHits: return "match_cache_hits";
    case TraceCounter::kMatchCacheLookups: return "match_cache_lookups";
    case TraceCounter::kSubtreeMemoHits: return "subtree_memo_hits";
    case TraceCounter::kSubtreeMemoLookups: return "subtree_memo_lookups";
    case TraceCounter::kDeltaRows: return "delta_rows";
    case TraceCounter::kDeltaTombstones: return "delta_tombstones";
    case TraceCounter::kShardProbes: return "shard_probes";
    case TraceCounter::kDroppedSpans: return "dropped_spans";
    case TraceCounter::kNumCounters: break;
  }
  return "unknown";
}

int64_t Trace::PhaseNs(SpanKind kind) const {
  int64_t total = 0;
  for (const TraceSpan& span : spans) {
    if (span.kind == kind && span.end_ns >= span.start_ns) {
      total += span.end_ns - span.start_ns;
    }
  }
  return total;
}

size_t Trace::PhaseCount(SpanKind kind) const {
  size_t n = 0;
  for (const TraceSpan& span : spans) {
    if (span.kind == kind) ++n;
  }
  return n;
}

bool Trace::WellFormed(std::string* why) const {
  auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    if (span.end_ns < 0) {
      return fail(std::string("unclosed span ") + SpanKindName(span.kind));
    }
    if (span.end_ns < span.start_ns) {
      return fail(std::string("non-monotonic span ") +
                  SpanKindName(span.kind));
    }
    if (span.parent >= 0) {
      if (static_cast<size_t>(span.parent) >= spans.size()) {
        return fail("parent index out of range");
      }
      const TraceSpan& parent = spans[span.parent];
      if (parent.start_ns > span.start_ns || parent.end_ns < span.end_ns) {
        return fail(std::string("span ") + SpanKindName(span.kind) +
                    " escapes parent " + SpanKindName(parent.kind));
      }
    }
  }
  return true;
}

TraceContext::TraceContext(TraceConfig config)
    : config_(config),
      generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {
  QBE_CHECK(config_.max_spans_per_lane >= 1 &&
            config_.max_spans_per_lane < (1u << 20));
  QBE_CHECK(config_.max_lanes >= 1 && config_.max_lanes <= (1u << 11));
  epoch_ns_ = config_.clock != nullptr ? config_.clock() : SteadyNowNs();
  lanes_.reserve(config_.max_lanes);
}

TraceContext::~TraceContext() = default;

int64_t TraceContext::NowNs() const {
  return (config_.clock != nullptr ? config_.clock() : SteadyNowNs()) -
         epoch_ns_;
}

TraceContext::Lane* TraceContext::LaneForThisThread() {
  if (t_lane_cache.generation == generation_) {
    return static_cast<Lane*>(t_lane_cache.lane);
  }
  std::lock_guard<std::mutex> lock(lanes_mu_);
  auto it = lane_of_thread_.find(std::this_thread::get_id());
  Lane* lane = nullptr;
  if (it != lane_of_thread_.end()) {
    lane = lanes_[it->second].get();
  } else if (lanes_.size() < config_.max_lanes) {
    auto fresh = std::make_unique<Lane>();
    fresh->spans.reserve(config_.max_spans_per_lane);
    fresh->index = static_cast<uint32_t>(lanes_.size());
    lane = fresh.get();
    lane_of_thread_.emplace(std::this_thread::get_id(), fresh->index);
    lanes_.push_back(std::move(fresh));
  } else {
    // Lane budget exhausted: this thread records nothing (counted).
    unassigned_dropped_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  t_lane_cache = LaneCacheEntry{generation_, lane};
  return lane;
}

SpanRef TraceContext::OpenSpan(SpanKind kind, SpanRef parent_hint) {
  Lane* lane = LaneForThisThread();
  if (lane == nullptr) return kNullSpan;
  if (lane->spans.size() >= config_.max_spans_per_lane ||
      lane->depth >= kMaxDepth) {
    lane->dropped += 1;
    return kNullSpan;
  }
  SpanRec rec;
  rec.kind = kind;
  rec.start_ns = NowNs();
  rec.parent = lane->depth > 0 ? lane->stack[lane->depth - 1] : parent_hint;
  uint32_t index = static_cast<uint32_t>(lane->spans.size());
  lane->spans.push_back(rec);
  SpanRef ref = PackRef(lane->index, index);
  lane->stack[lane->depth++] = ref;
  return ref;
}

void TraceContext::CloseSpan(SpanRef ref) {
  if (ref == kNullSpan) return;
  Lane* lane = LaneForThisThread();
  if (lane == nullptr) return;
  uint32_t index = RefIndex(ref);
  QBE_CHECK(index < lane->spans.size());
  lane->spans[index].end_ns = NowNs();
  if (lane->depth > 0 && lane->stack[lane->depth - 1] == ref) {
    lane->depth -= 1;
  }
}

void TraceContext::AnnotateShard(SpanRef ref, int shard) {
  if (ref == kNullSpan) return;
  Lane* lane = LaneForThisThread();
  if (lane == nullptr) return;
  uint32_t index = RefIndex(ref);
  QBE_CHECK(index < lane->spans.size());
  lane->spans[index].shard = static_cast<int32_t>(shard);
}

void TraceContext::Count(TraceCounter counter, int64_t delta) {
  Lane* lane = LaneForThisThread();
  if (lane == nullptr) return;
  lane->counters[static_cast<size_t>(counter)] += delta;
}

Trace TraceContext::Stitch() const {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  Trace trace;
  trace.request_id = request_id_;
  // Global index of each lane's first span, for parent-ref resolution.
  std::vector<size_t> lane_offset(lanes_.size(), 0);
  size_t total = 0;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    lane_offset[l] = total;
    total += lanes_[l]->spans.size();
  }
  trace.spans.reserve(total);
  for (size_t l = 0; l < lanes_.size(); ++l) {
    const Lane& lane = *lanes_[l];
    for (const SpanRec& rec : lane.spans) {
      TraceSpan span;
      span.kind = rec.kind;
      span.lane = static_cast<uint32_t>(l);
      span.start_ns = rec.start_ns;
      span.end_ns = rec.end_ns;
      span.shard = rec.shard;
      span.parent =
          rec.parent == kNullSpan
              ? -1
              : static_cast<int32_t>(lane_offset[RefLane(rec.parent)] +
                                     RefIndex(rec.parent));
      trace.spans.push_back(span);
    }
    for (size_t c = 0; c < kNumCounters; ++c) {
      trace.counters[c] += lane.counters[c];
    }
    trace.dropped_spans += lane.dropped;
  }
  trace.dropped_spans += unassigned_dropped_.load(std::memory_order_relaxed);
  trace.counters[static_cast<size_t>(TraceCounter::kDroppedSpans)] =
      trace.dropped_spans;
  return trace;
}

bool TraceSampler::Sample(uint64_t n) const {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  uint64_t h = SplitMix64(seed ^ (n * 0x9E3779B97F4A7C15ull));
  return static_cast<double>(h) <
         rate * 18446744073709551616.0 /* 2^64 */;
}

namespace {

void AppendSpanEvent(const Trace& trace, const TraceSpan& span,
                     bool* first, std::string* out) {
  char buf[320];
  double ts_us = static_cast<double>(span.start_ns) / 1000.0;
  double dur_us =
      static_cast<double>(std::max<int64_t>(0, span.end_ns - span.start_ns)) /
      1000.0;
  char args[32] = "";
  if (span.shard >= 0) {
    std::snprintf(args, sizeof(args), ",\"args\":{\"shard\":%d}", span.shard);
  }
  std::snprintf(buf, sizeof(buf),
                "%s\n{\"name\":\"%s\",\"cat\":\"qbe\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%llu,\"tid\":%u%s}",
                *first ? "" : ",", SpanKindName(span.kind), ts_us, dur_us,
                static_cast<unsigned long long>(trace.request_id),
                span.lane, args);
  *first = false;
  out->append(buf);
}

}  // namespace

std::string ChromeTraceJson(const std::vector<Trace>& traces) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Trace& trace : traces) {
    for (const TraceSpan& span : trace.spans) {
      AppendSpanEvent(trace, span, &first, &out);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string ChromeTraceJson(const Trace& trace) {
  return ChromeTraceJson(std::vector<Trace>{trace});
}

}  // namespace qbe
