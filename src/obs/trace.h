#ifndef QBE_OBS_TRACE_H_
#define QBE_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/owner_thread.h"

namespace qbe {

/// Request-scoped tracing & profiling (DESIGN.md §13).
///
/// A TraceContext rides through one discovery request (DiscoveryOptions::
/// trace → VerifyContext::trace → EvalEngine → Executor) and records a tree
/// of nested spans with nanosecond timings plus per-phase counters. The
/// recording path is built for the verify hot loop:
///
///  - one writer: a request runs on one thread, so a context owns one
///    preallocated span buffer, one open-span stack and one counter array,
///    and Open/Close/Count take no lock and never allocate. The first
///    recording thread pins the context; a record from any other thread
///    fails a QBE_CHECK (util/owner_thread.h);
///  - fixed span capacity: a full buffer drops further spans (counted in
///    kDroppedSpans) instead of growing, keeping the memory bound hard;
///  - null-context short-circuit: every instrumentation site guards on
///    `trace == nullptr`, so an untraced run costs one predictable branch
///    and is bit-identical to an uninstrumented build.
///
/// At request end Stitch() copies the buffer into one Trace whose span tree
/// satisfies: balanced open/close, monotonic clocks (end >= start), and
/// parent containment (a child's interval lies within its parent's) — the
/// invariants tests/trace_test.cc locks down.

/// Span taxonomy. Fixed at compile time so span records carry one byte
/// instead of a name allocation.
enum class SpanKind : uint8_t {
  kRequest = 0,      // whole service request (root)
  kCandidateGen,     // §3.2 candidate enumeration
  kEtTokenResolve,   // ET-cell token-id resolution against the TokenDict
  kVerifyAll,        // per-algorithm verification phase...
  kSimplePrune,
  kFilter,
  kFilterExact,
  kWeave,
  kRelaxedVerify,    // min_row_support >= 0 row-counting path
  kRank,             // result ranking + SQL rendering
  kEvalExec,         // one executed existence query (eval-cache miss)
  kEvalCacheKey,     // building one existence query's eval-cache key
  kEvalCacheLookup,  // shared verification-outcome cache probe
  kTextMatch,        // phrase/exact matching inside one SeedNode
  kNetRead,          // net: draining + framing one socket readable event
  kNetWrite,         // net: flushing buffered response bytes to a socket
  kNumKinds
};

const char* SpanKindName(SpanKind kind);

/// Counters accumulated per request.
enum class TraceCounter : uint8_t {
  kCandidatesGenerated = 0,
  kQueriesVerified,   // existence queries actually executed
  kValidQueries,
  kEvalCacheHits,
  kEvalCacheLookups,
  kMatchCacheHits,
  kMatchCacheLookups,
  kSubtreeMemoHits,
  kSubtreeMemoLookups,
  kDeltaRows,        // overlay rows visible to this request's pinned epoch
  kDeltaTombstones,
  kShardProbes,      // shard-local existence-query probes (DESIGN.md §15)
  kDroppedSpans,
  kNumCounters
};

const char* TraceCounterName(TraceCounter counter);

/// Handle to a recorded span: span index + 1. 0 = null (span was dropped
/// or tracing is off); Close on null is a no-op.
using SpanRef = uint32_t;
inline constexpr SpanRef kNullSpan = 0;

struct TraceConfig {
  /// Hard cap on spans recorded per request; the overflow is dropped and
  /// counted.
  uint32_t max_spans = 32768;
  /// Test seam: injectable monotonic nanosecond clock. Null = the real
  /// steady clock. A plain function pointer so the hot path stays cheap.
  int64_t (*clock)() = nullptr;
};

/// One span of a stitched Trace.
struct TraceSpan {
  SpanKind kind = SpanKind::kRequest;
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1: never closed (malformed tree)
  int32_t parent = -1;  // index into Trace::spans; -1 = root
  int32_t shard = -1;   // shard that answered (sharded eval_exec only)
};

/// The stitched, immutable result of one traced request.
struct Trace {
  /// Request sequence number (service-assigned; 0 for standalone runs).
  uint64_t request_id = 0;
  std::vector<TraceSpan> spans;
  int64_t counters[static_cast<size_t>(TraceCounter::kNumCounters)] = {};
  int64_t dropped_spans = 0;

  int64_t counter(TraceCounter c) const {
    return counters[static_cast<size_t>(c)];
  }
  /// Total nanoseconds across all (closed) spans of `kind`.
  int64_t PhaseNs(SpanKind kind) const;
  /// Number of spans of `kind`.
  size_t PhaseCount(SpanKind kind) const;
  /// Checks the span-tree invariants: every span closed, end >= start,
  /// parents precede children and contain their intervals. On failure
  /// returns false and (if non-null) writes the reason to `why`.
  bool WellFormed(std::string* why = nullptr) const;
};

/// Live recording context for one request. Not thread-safe: every record
/// (OpenSpan, CloseSpan, AnnotateShard, Count) must come from the one
/// thread that made the first; creating the context and setting its id
/// may happen elsewhere (the service admits on the caller's thread).
class TraceContext {
 public:
  explicit TraceContext(TraceConfig config = {});
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Opens a span nested under the innermost open one (a root when none is
  /// open).
  SpanRef OpenSpan(SpanKind kind);

  /// Closes `ref` (no-op for kNullSpan). Must be called in LIFO order —
  /// ScopedSpan guarantees it.
  void CloseSpan(SpanRef ref);

  /// Tags `ref` with the shard that answered it (sharded scatter-gather;
  /// DESIGN.md §15), while the span is open. No-op for kNullSpan.
  void AnnotateShard(SpanRef ref, int shard);

  void Count(TraceCounter counter, int64_t delta);

  /// Nanoseconds since context creation on the configured clock.
  int64_t NowNs() const;

  uint64_t request_id() const { return request_id_; }
  void set_request_id(uint64_t id) { request_id_ = id; }

  /// Copies the recorded spans and counters into one Trace (see invariants
  /// above). Safe to call repeatedly; recording after a Stitch is allowed
  /// but unusual.
  Trace Stitch() const;

 private:
  struct SpanRec {
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    SpanRef parent = kNullSpan;
    SpanKind kind = SpanKind::kRequest;
    int32_t shard = -1;
  };

  static constexpr int kMaxDepth = 64;

  TraceConfig config_;
  int64_t epoch_ns_;  // absolute clock value at construction
  uint64_t request_id_ = 0;
  OwnerThread owner_;

  std::vector<SpanRec> spans_;     // reserved at the first span
  SpanRef stack_[kMaxDepth] = {};  // open spans, innermost last
  int depth_ = 0;
  int64_t counters_[static_cast<size_t>(TraceCounter::kNumCounters)] = {};
  int64_t dropped_ = 0;
};

/// RAII span; tolerates a null context (records nothing).
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* ctx, SpanKind kind)
      : ctx_(ctx), ref_(ctx == nullptr ? kNullSpan : ctx->OpenSpan(kind)) {}
  ~ScopedSpan() {
    if (ctx_ != nullptr) ctx_->CloseSpan(ref_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanRef ref() const { return ref_; }

 private:
  TraceContext* ctx_;
  SpanRef ref_;
};

/// Deterministic per-request sampling decision: request n is traced iff
/// splitmix64(seed, n) < rate * 2^64. The same (seed, n) always decides the
/// same way — the determinism tests/trace_test.cc requires — and decisions
/// are independent across n.
struct TraceSampler {
  double rate = 0.0;
  uint64_t seed = 42;

  bool Sample(uint64_t n) const;
};

/// Renders traces as Chrome trace-event JSON ("X" complete events, ts/dur
/// in microseconds), loadable in chrome://tracing or Perfetto. Each trace
/// becomes one process (pid = request id) with one thread (tid 0).
std::string ChromeTraceJson(const std::vector<Trace>& traces);
std::string ChromeTraceJson(const Trace& trace);

}  // namespace qbe

#endif  // QBE_OBS_TRACE_H_
