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

constexpr char kOwnerMessage[] =
    "TraceContext used from a second thread; a request records on one thread";

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

TraceContext::TraceContext(TraceConfig config) : config_(config) {
  QBE_CHECK(config_.max_spans >= 1);
  epoch_ns_ = config_.clock != nullptr ? config_.clock() : SteadyNowNs();
}

TraceContext::~TraceContext() = default;

int64_t TraceContext::NowNs() const {
  return (config_.clock != nullptr ? config_.clock() : SteadyNowNs()) -
         epoch_ns_;
}

SpanRef TraceContext::OpenSpan(SpanKind kind) {
  owner_.Check(kOwnerMessage);
  if (spans_.size() >= config_.max_spans || depth_ >= kMaxDepth) {
    dropped_ += 1;
    return kNullSpan;
  }
  // Reserved at the first span, so a context waiting in the service's
  // admission queue holds no buffer; never reallocated after.
  if (spans_.capacity() == 0) spans_.reserve(config_.max_spans);
  SpanRec rec;
  rec.kind = kind;
  rec.start_ns = NowNs();
  rec.parent = depth_ > 0 ? stack_[depth_ - 1] : kNullSpan;
  spans_.push_back(rec);
  const SpanRef ref = static_cast<SpanRef>(spans_.size());
  stack_[depth_++] = ref;
  return ref;
}

void TraceContext::CloseSpan(SpanRef ref) {
  if (ref == kNullSpan) return;
  owner_.Check(kOwnerMessage);
  QBE_CHECK(ref <= spans_.size());
  spans_[ref - 1].end_ns = NowNs();
  if (depth_ > 0 && stack_[depth_ - 1] == ref) depth_ -= 1;
}

void TraceContext::AnnotateShard(SpanRef ref, int shard) {
  if (ref == kNullSpan) return;
  owner_.Check(kOwnerMessage);
  QBE_CHECK(ref <= spans_.size());
  spans_[ref - 1].shard = static_cast<int32_t>(shard);
}

void TraceContext::Count(TraceCounter counter, int64_t delta) {
  owner_.Check(kOwnerMessage);
  counters_[static_cast<size_t>(counter)] += delta;
}

Trace TraceContext::Stitch() const {
  Trace trace;
  trace.request_id = request_id_;
  trace.spans.reserve(spans_.size());
  for (const SpanRec& rec : spans_) {
    TraceSpan span;
    span.kind = rec.kind;
    span.start_ns = rec.start_ns;
    span.end_ns = rec.end_ns;
    span.shard = rec.shard;
    span.parent = static_cast<int32_t>(rec.parent) - 1;
    trace.spans.push_back(span);
  }
  for (size_t c = 0; c < kNumCounters; ++c) trace.counters[c] = counters_[c];
  trace.dropped_spans = dropped_;
  trace.counters[static_cast<size_t>(TraceCounter::kDroppedSpans)] = dropped_;
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
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%llu,\"tid\":0%s}",
                *first ? "" : ",", SpanKindName(span.kind), ts_us, dur_us,
                static_cast<unsigned long long>(trace.request_id), args);
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
