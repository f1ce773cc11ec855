#include "service/discovery_service.h"

#include <cstdio>
#include <deque>
#include <utility>

#include "kernels/kernels.h"
#include "obs/prom.h"
#include "obs/slow_log.h"
#include "shard/coordinator.h"
#include "shard/partition.h"
#include "util/deadline.h"
#include "util/hash64.h"
#include "util/stopwatch.h"

namespace qbe {

const char* ToString(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kTimedOut:
      return "timed_out";
    case RequestStatus::kFailed:
      return "failed";
    case RequestStatus::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

namespace {

/// Work buckets: 1 .. ~1M verifications per request.
std::vector<double> WorkBuckets() { return ExponentialBuckets(1.0, 4.0, 11); }

/// Queue-depth buckets: 1 .. 1024 requests waiting.
std::vector<double> DepthBuckets() { return ExponentialBuckets(1.0, 2.0, 11); }

/// Latency-histogram bounds: options.latency_buckets or, by default,
/// 100 µs .. ~100 s.
std::vector<double> LatencyBounds(const ServiceOptions& options) {
  return options.latency_buckets.empty() ? ExponentialBuckets(1e-4, 2.0, 21)
                                         : options.latency_buckets;
}

/// Observes the wall time of the enclosing scope in a histogram.
class ScopedObserve {
 public:
  explicit ScopedObserve(HistogramHandle& histogram) : histogram_(histogram) {}
  ~ScopedObserve() { histogram_.Observe(timer_.ElapsedSeconds()); }
  ScopedObserve(const ScopedObserve&) = delete;
  ScopedObserve& operator=(const ScopedObserve&) = delete;

 private:
  HistogramHandle& histogram_;
  Stopwatch timer_;
};

}  // namespace

/// Handles of every metric the request path (Admit, Run) and the mutation
/// path (appends, tombstones, compactions) update, with names (per-shard
/// and per-phase ones included) and histogram bounds built once at
/// construction. Each registers on first use, so dumps list the same
/// metrics a by-name lookup at the update site would create.
struct DiscoveryService::Instruments {
  struct PerShard {
    PerShard(MetricsRegistry& m, const std::string& suffix)
        : probes(m, "shard_probes" + suffix),
          hits(m, "shard_hits" + suffix),
          skipped_empty(m, "shard_skipped_empty" + suffix) {}
    CounterHandle probes;
    CounterHandle hits;
    CounterHandle skipped_empty;
  };

  Instruments(MetricsRegistry& m, const std::vector<double>& latency,
              int num_shards)
      : requests_received(m, "requests_received"),
        requests_admitted(m, "requests_admitted"),
        requests_rejected(m, "requests_rejected"),
        requests_shutdown(m, "requests_shutdown"),
        requests_timed_out(m, "requests_timed_out"),
        requests_failed(m, "requests_failed"),
        requests_completed(m, "requests_completed"),
        requests_traced(m, "requests_traced"),
        queries_discovered(m, "queries_discovered"),
        match_cache_hits(m, "match_cache_hits"),
        match_cache_lookups(m, "match_cache_lookups"),
        slow_queries_logged(m, "slow_queries_logged"),
        queue_depth_at_admission(m, "queue_depth_at_admission",
                                 DepthBuckets()),
        queue_seconds(m, "queue_seconds", latency),
        latency_seconds(m, "latency_seconds", latency),
        verifications_per_request(m, "verifications_per_request",
                                  WorkBuckets()),
        shard_busy_seconds(m, "shard_busy_seconds", latency),
        wal_attach_failed(m, "wal_attach_failed"),
        rows_appended(m, "rows_appended"),
        appends_rejected(m, "appends_rejected"),
        rows_tombstoned(m, "rows_tombstoned"),
        tombstones_rejected(m, "tombstones_rejected"),
        compactions(m, "compactions"),
        compactions_failed(m, "compactions_failed"),
        compacted_appends(m, "compacted_appends"),
        compacted_tombstones(m, "compacted_tombstones"),
        compaction_tail_ops(m, "compaction_tail_ops"),
        append_seconds(m, "append_seconds", latency),
        compaction_seconds(m, "compaction_seconds", latency) {
    for (int s = 0; s < num_shards; ++s) {
      shards.emplace_back(m, "_s" + std::to_string(s));
    }
    for (size_t k = 0; k < static_cast<size_t>(SpanKind::kNumKinds); ++k) {
      phase_seconds.emplace_back(
          m,
          std::string("phase_seconds_") +
              SpanKindName(static_cast<SpanKind>(k)),
          latency);
    }
  }

  CounterHandle requests_received;
  CounterHandle requests_admitted;
  CounterHandle requests_rejected;
  CounterHandle requests_shutdown;
  CounterHandle requests_timed_out;
  CounterHandle requests_failed;
  CounterHandle requests_completed;
  CounterHandle requests_traced;
  CounterHandle queries_discovered;
  CounterHandle match_cache_hits;
  CounterHandle match_cache_lookups;
  CounterHandle slow_queries_logged;
  HistogramHandle queue_depth_at_admission;
  HistogramHandle queue_seconds;
  HistogramHandle latency_seconds;
  HistogramHandle verifications_per_request;
  HistogramHandle shard_busy_seconds;
  CounterHandle wal_attach_failed;
  CounterHandle rows_appended;
  CounterHandle appends_rejected;
  CounterHandle rows_tombstoned;
  CounterHandle tombstones_rejected;
  CounterHandle compactions;
  CounterHandle compactions_failed;
  CounterHandle compacted_appends;
  CounterHandle compacted_tombstones;
  // Ops committed while a fold merged: the rebased tails, summed.
  CounterHandle compaction_tail_ops;
  // Append/AppendBatch/TombstoneAt wall time, rejections too (Tombstone
  // forwards to TombstoneAt).
  HistogramHandle append_seconds;
  HistogramHandle compaction_seconds;
  // Indexed by shard; only sharded runs update them. Deques because
  // handles are immovable.
  std::deque<PerShard> shards;
  std::deque<HistogramHandle> phase_seconds;  // indexed by SpanKind
  // The last sharded request's straggler ratio, published as a gauge at
  // refresh; < 0 until one has run.
  std::atomic<double> straggler_ratio{-1.0};
};

/// Everything a request carries through the pool: the input, its deadline
/// token (armed at admission so queue time counts against the SLA), the
/// admission timestamp, and the promise the client's future is bound to.
struct DiscoveryService::Request {
  ExampleTable et;
  DeadlineToken deadline;
  bool has_deadline = false;
  Stopwatch since_admission;
  std::promise<ServiceResponse> promise;
  /// Set for SubmitAsync requests; such a request resolves through the
  /// callback instead of the promise (see Deliver).
  std::function<void(ServiceResponse)> done;
  /// Service-wide submission sequence number (the sampling input).
  uint64_t seq = 0;
  /// Armed iff this request was sampled for tracing.
  std::unique_ptr<TraceContext> trace;

  explicit Request(ExampleTable table) : et(std::move(table)) {}
};

namespace {

std::vector<Database> OneShard(Database db) {
  std::vector<Database> shards;
  shards.push_back(std::move(db));
  return shards;
}

/// Per-shard suffix for WAL/snapshot paths in sharded mode; unsharded
/// deployments keep their paths verbatim.
std::string ShardPath(const std::string& path, int shard, int num_shards) {
  if (path.empty() || num_shards == 1) return path;
  return path + ".shard" + std::to_string(shard);
}

}  // namespace

DiscoveryService::DiscoveryService(Database db, ServiceOptions options)
    : DiscoveryService(OneShard(std::move(db)), std::move(options)) {}

DiscoveryService::DiscoveryService(std::vector<Database> shards,
                                   ServiceOptions options)
    : options_(std::move(options)),
      instruments_(std::make_unique<Instruments>(
          metrics_, LatencyBounds(options_), static_cast<int>(shards.size()))),
      // Registered up front: 0 on a never-mutated service is an answer.
      eval_cache_generations_(metrics_.GetCounter("eval_cache_generations")),
      pool_(std::make_unique<ThreadPool>(options_.num_workers,
                                         options_.max_queue_depth)) {
  for (Database& shard : shards) {
    lives_.push_back(std::make_unique<LiveDatabase>(std::move(shard)));
  }
  const int n = num_shards();
  sampler_.rate = options_.trace_sample;
  sampler_.seed = options_.trace_seed;
  if (!options_.wal_path.empty()) {
    // Sharded mode logs each shard's ops into its own WAL (append routing
    // is deterministic, so replaying each shard's log reproduces the same
    // placement).
    for (int s = 0; s < n; ++s) {
      std::string shard_error;
      if (!lives_[s]->AttachWal(ShardPath(options_.wal_path, s, n),
                                &shard_error)) {
        instruments_->wal_attach_failed.Increment();
        if (wal_error_.empty()) wal_error_ = std::move(shard_error);
      }
    }
  }
  if (options_.compact_after_ops > 0) {
    for (int s = 0; s < n; ++s) {
      Compactor::Options co;
      co.ops_threshold = options_.compact_after_ops;
      co.snapshot_path = ShardPath(options_.compact_snapshot_path, s, n);
      co.on_compaction = [this](const CompactionStats& stats) {
        RecordCompaction(stats);
      };
      co.on_error = [this](const std::string&) {
        instruments_->compactions_failed.Increment();
      };
      compactors_.push_back(
          std::make_unique<Compactor>(lives_[s].get(), std::move(co)));
    }
  }
}

DiscoveryService::~DiscoveryService() { Shutdown(); }

std::future<ServiceResponse> DiscoveryService::Submit(
    ExampleTable et, std::optional<std::chrono::milliseconds> timeout) {
  auto request = std::make_shared<Request>(std::move(et));
  std::future<ServiceResponse> future = request->promise.get_future();
  Admit(std::move(request), timeout);
  return future;
}

void DiscoveryService::SubmitAsync(
    ExampleTable et, std::optional<std::chrono::milliseconds> timeout,
    std::function<void(ServiceResponse)> done) {
  auto request = std::make_shared<Request>(std::move(et));
  request->done = std::move(done);
  Admit(std::move(request), timeout);
}

void DiscoveryService::Deliver(Request& request, ServiceResponse&& response) {
  if (request.done) {
    request.done(std::move(response));
  } else {
    request.promise.set_value(std::move(response));
  }
}

void DiscoveryService::Admit(
    std::shared_ptr<Request> request,
    std::optional<std::chrono::milliseconds> timeout) {
  Instruments& m = *instruments_;
  m.requests_received.Increment();

  auto finish_now = [&](RequestStatus status) {
    ServiceResponse response;
    response.status = status;
    Deliver(*request, std::move(response));
  };

  if (!accepting_.load(std::memory_order_acquire)) {
    m.requests_shutdown.Increment();
    finish_now(RequestStatus::kShutdown);
    return;
  }

  std::chrono::milliseconds budget =
      timeout.has_value() ? *timeout : options_.default_timeout;
  if (budget.count() != 0) {
    request->deadline.SetTimeout(budget);
    request->has_deadline = true;
  }

  // The sampling decision is made here, at submission, from the sequence
  // number alone — deterministic for a replayed workload no matter how the
  // worker pool interleaves execution.
  request->seq = request_seq_.fetch_add(1, std::memory_order_relaxed);
  if (options_.trace_sample > 0.0 && sampler_.Sample(request->seq)) {
    request->trace = std::make_unique<TraceContext>();
    request->trace->set_request_id(request->seq);
  }

  bool admitted =
      pool_->TrySubmit([this, request] { Run(request); });
  if (!admitted) {
    // Queue full (or the pool began stopping underneath us): fast-fail.
    m.requests_rejected.Increment();
    finish_now(accepting_.load(std::memory_order_acquire)
                   ? RequestStatus::kRejected
                   : RequestStatus::kShutdown);
    return;
  }
  m.requests_admitted.Increment();
  m.queue_depth_at_admission.Observe(
      static_cast<double>(pool_->QueueDepth()));
}

ServiceResponse DiscoveryService::Discover(
    const ExampleTable& et, std::optional<std::chrono::milliseconds> timeout) {
  return Submit(et, timeout).get();
}

void DiscoveryService::Run(const std::shared_ptr<Request>& request) {
  Instruments& m = *instruments_;
  double queued = request->since_admission.ElapsedSeconds();
  m.queue_seconds.Observe(queued);
  if (options_.on_request_start) options_.on_request_start();

  DiscoveryOptions options = options_.discovery;
  options.cache = &cache_;
  options.deadline = request->has_deadline ? &request->deadline : nullptr;
  TraceContext* trace = request->trace.get();
  options.trace = trace;

  // Root span: everything discovery records on this worker thread nests
  // under it.
  SpanRef request_span =
      trace == nullptr ? kNullSpan : trace->OpenSpan(SpanKind::kRequest);

  // Pin the epoch current right now — every shard's — so the whole
  // discovery reads one consistent base+delta snapshot per shard, kept
  // alive across any concurrent appends or compactions. The (combined)
  // epoch namespaces the shared eval cache, so outcomes never cross data
  // versions.
  std::vector<DbVersion> versions;
  versions.reserve(lives_.size());
  for (const auto& live : lives_) versions.push_back(live->Pin());

  DiscoveryResult result;
  ShardStats shard_stats;
  if (num_shards() == 1) {
    result = DiscoverQueries(versions[0].view(), request->et, options,
                             versions[0].epoch);
  } else {
    // Combined cache epoch: a deterministic digest of the per-shard
    // epochs — 0 (the "pristine" namespace) iff every shard is pristine,
    // else forced nonzero so mutated and pristine states never share
    // cache entries.
    std::vector<uint64_t> epochs;
    epochs.reserve(versions.size());
    bool any_nonzero = false;
    for (const DbVersion& version : versions) {
      epochs.push_back(version.epoch);
      any_nonzero = any_nonzero || version.epoch != 0;
    }
    uint64_t epoch = 0;
    if (any_nonzero) {
      epoch = Hash64(epochs.data(), epochs.size() * sizeof(uint64_t));
      if (epoch == 0) epoch = 1;
    }
    std::vector<DbView> views;
    views.reserve(versions.size());
    for (const DbVersion& version : versions) views.push_back(version.view());
    result = DiscoverQueriesSharded(views, request->et, options, epoch,
                                    &shard_stats);
  }
  if (trace != nullptr) trace->CloseSpan(request_span);

  ServiceResponse response;
  response.queue_seconds = queued;
  response.latency_seconds = request->since_admission.ElapsedSeconds();
  if (result.timed_out) {
    response.status = RequestStatus::kTimedOut;
    m.requests_timed_out.Increment();
  } else if (!result.ok()) {
    response.status = RequestStatus::kFailed;
    m.requests_failed.Increment();
  } else {
    response.status = RequestStatus::kOk;
    m.requests_completed.Increment();
    m.queries_discovered.Increment(
        static_cast<int64_t>(result.queries.size()));
    m.verifications_per_request.Observe(
        static_cast<double>(result.counters.verifications));
    m.match_cache_hits.Increment(result.counters.match_cache_hits);
    m.match_cache_lookups.Increment(result.counters.match_cache_lookups);
  }
  // Per-shard scatter-gather traffic and balance (sharded mode only;
  // observation-only, like everything else here).
  for (size_t s = 0; s < shard_stats.per_shard.size(); ++s) {
    const auto& shard = shard_stats.per_shard[s];
    Instruments::PerShard& counters = m.shards[s];
    counters.probes.Increment(shard.probes);
    counters.hits.Increment(shard.hits);
    counters.skipped_empty.Increment(shard.skipped_empty);
    m.shard_busy_seconds.Observe(shard.busy_seconds);
  }
  if (num_shards() > 1) {
    m.straggler_ratio.store(shard_stats.straggler_ratio,
                            std::memory_order_relaxed);
  }
  m.latency_seconds.Observe(response.latency_seconds);

  bool traced = false;
  Trace stitched;
  if (trace != nullptr) {
    stitched = trace->Stitch();
    traced = true;
    m.requests_traced.Increment();
    // Per-phase rollups: one latency histogram per span kind observed, so
    // the exporter shows where sampled requests spend their time.
    for (size_t k = 0; k < static_cast<size_t>(SpanKind::kNumKinds); ++k) {
      const SpanKind kind = static_cast<SpanKind>(k);
      const int64_t ns = stitched.PhaseNs(kind);
      if (ns <= 0) continue;
      m.phase_seconds[k].Observe(static_cast<double>(ns) * 1e-9);
    }
    std::lock_guard<std::mutex> lock(traces_mu_);
    recent_traces_.push_back(stitched);
    while (recent_traces_.size() > options_.trace_keep) {
      recent_traces_.pop_front();
    }
  }

  if (options_.slow_query_ms >= 0.0 &&
      response.latency_seconds * 1000.0 >= options_.slow_query_ms) {
    SlowQueryRecord record;
    record.request_id = request->seq;
    record.status = ToString(response.status);
    record.latency_seconds = response.latency_seconds;
    record.queue_seconds = queued;
    record.et_rows = request->et.num_rows();
    record.et_cols = request->et.num_columns();
    record.candidates = static_cast<int64_t>(result.num_candidates);
    record.verifications = result.counters.verifications;
    record.queries = static_cast<int64_t>(result.queries.size());
    record.kernel_level = KernelLevelName(ActiveKernelLevel());
    record.traced = traced;
    if (traced) {
      for (size_t k = 0; k < static_cast<size_t>(SpanKind::kNumKinds); ++k) {
        const SpanKind kind = static_cast<SpanKind>(k);
        const int64_t ns = stitched.PhaseNs(kind);
        if (ns <= 0) continue;
        record.phases.emplace_back(SpanKindName(kind),
                                   static_cast<double>(ns) * 1e-9);
      }
    }
    const std::string line = SlowQueryJson(record);
    if (options_.slow_query_sink) {
      options_.slow_query_sink(line);
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
    m.slow_queries_logged.Increment();
  }

  response.result = std::move(result);
  Deliver(*request, std::move(response));
}

std::vector<Trace> DiscoveryService::RecentTraces() const {
  std::lock_guard<std::mutex> lock(traces_mu_);
  return {recent_traces_.begin(), recent_traces_.end()};
}

std::string DiscoveryService::ChromeTraces() const {
  return ChromeTraceJson(RecentTraces());
}

bool DiscoveryService::Append(int rel, std::vector<Value> values,
                              std::string* error) {
  ScopedObserve timed(instruments_->append_seconds);
  return AppendRow(rel, std::move(values), error);
}

bool DiscoveryService::AppendRow(int rel, std::vector<Value> values,
                                 std::string* error) {
  Instruments& m = *instruments_;
  if (num_shards() == 1) {
    if (!lives_[0]->Append(rel, std::move(values), error)) {
      m.appends_rejected.Increment();
      return false;
    }
    m.rows_appended.Increment();
    RotateCache();
    return true;
  }

  // Sharded: route first (RouteAppend pins every shard to inspect live
  // relatives), then append to the chosen shard. The mutex serializes
  // route+append so concurrent appends of related rows see each other.
  std::lock_guard<std::mutex> lock(route_mu_);
  std::vector<DbVersion> versions;
  std::vector<DbView> views;
  versions.reserve(lives_.size());
  views.reserve(lives_.size());
  for (const auto& live : lives_) {
    versions.push_back(live->Pin());
    views.push_back(versions.back().view());
  }
  const int shard =
      RouteAppend(views, rel, values, options_.shard_seed, error);
  if (shard < 0 || !lives_[shard]->Append(rel, std::move(values), error)) {
    m.appends_rejected.Increment();
    return false;
  }
  m.rows_appended.Increment();
  RotateCache();
  return true;
}

bool DiscoveryService::AppendBatch(int rel,
                                   std::vector<std::vector<Value>> rows,
                                   std::string* error) {
  Instruments& m = *instruments_;
  ScopedObserve timed(m.append_seconds);
  const int64_t n = static_cast<int64_t>(rows.size());
  if (num_shards() == 1) {
    if (!lives_[0]->AppendBatch(rel, std::move(rows), error)) {
      m.appends_rejected.Increment(n);
      return false;
    }
    m.rows_appended.Increment(n);
    RotateCache();
    return true;
  }

  // Sharded batches route and apply row by row (a later row may be
  // constrained by an earlier one — e.g. a parent and its children in one
  // batch). Not all-or-nothing across shards: on failure, rows before the
  // offending one stay applied and `*error` says how many.
  for (int64_t i = 0; i < n; ++i) {
    if (!AppendRow(rel, std::move(rows[i]), error)) {
      m.appends_rejected.Increment(n - i - 1);
      if (error != nullptr) {
        *error += " (batch row " + std::to_string(i) + "; prior rows kept)";
      }
      return false;
    }
  }
  return true;
}

bool DiscoveryService::Tombstone(int rel, uint32_t row, std::string* error) {
  if (num_shards() > 1) {
    if (error != nullptr) {
      *error = "row ids are shard-local in sharded mode; use TombstoneAt";
    }
    instruments_->tombstones_rejected.Increment();
    return false;
  }
  return TombstoneAt(0, rel, row, error);
}

bool DiscoveryService::TombstoneAt(int shard, int rel, uint32_t row,
                                   std::string* error) {
  Instruments& m = *instruments_;
  ScopedObserve timed(m.append_seconds);
  if (shard < 0 || shard >= num_shards()) {
    if (error != nullptr) {
      *error = "no such shard " + std::to_string(shard);
    }
    m.tombstones_rejected.Increment();
    return false;
  }
  if (!lives_[shard]->Tombstone(rel, row, error)) {
    m.tombstones_rejected.Increment();
    return false;
  }
  m.rows_tombstoned.Increment();
  RotateCache();
  return true;
}

bool DiscoveryService::Flush(std::string* error) {
  for (const auto& live : lives_) {
    if (!live->Flush(error)) return false;
  }
  return true;
}

bool DiscoveryService::CompactNow(std::string* error, CompactionStats* stats) {
  const int n = num_shards();
  for (int s = 0; s < n; ++s) {
    CompactionStats local;
    CompactionStats* out = (stats != nullptr && s == 0) ? stats : &local;
    if (!lives_[s]->Compact(ShardPath(options_.compact_snapshot_path, s, n),
                            error, out)) {
      instruments_->compactions_failed.Increment();
      return false;
    }
    if (out->epoch != 0) RecordCompaction(*out);
  }
  return true;
}

void DiscoveryService::RecordCompaction(const CompactionStats& stats) {
  Instruments& m = *instruments_;
  m.compactions.Increment();
  m.compacted_appends.Increment(static_cast<int64_t>(stats.merged_appends));
  m.compacted_tombstones.Increment(
      static_cast<int64_t>(stats.merged_tombstones));
  m.compaction_tail_ops.Increment(static_cast<int64_t>(stats.remaining_ops));
  m.compaction_seconds.Observe(stats.seconds);
  RotateCache();
}

void DiscoveryService::RotateCache() {
  cache_.StartGeneration();
  eval_cache_generations_.Increment();
}

void DiscoveryService::Shutdown() {
  accepting_.store(false, std::memory_order_release);
  // Stop the compactors first: a merge mid-teardown would race the pools'
  // drain (and its epoch publish would be pointless anyway).
  for (const auto& compactor : compactors_) compactor->Stop();
  pool_->Shutdown();  // drains queued + in-flight; their promises resolve
}

void DiscoveryService::RefreshGauges() {
  metrics_.SetGauge("eval_cache_size", static_cast<double>(cache_.size()));
  metrics_.SetGauge("eval_cache_bytes", static_cast<double>(cache_.bytes()));
  metrics_.SetGauge("eval_cache_hit_rate", cache_.HitRate());
  metrics_.SetGauge("eval_cache_lookups",
                    static_cast<double>(cache_.lookups()));
  metrics_.SetGauge("queue_depth", static_cast<double>(pool_->QueueDepth()));
  metrics_.SetGauge("worker_threads",
                    static_cast<double>(pool_->num_threads()));
  // Summed across shards (unsharded = the single live database's values).
  double epoch = 0.0, delta_rows = 0.0, tombstones = 0.0;
  bool all_wals = true;
  for (const auto& live : lives_) {
    epoch += static_cast<double>(live->epoch());
    delta_rows += static_cast<double>(live->delta_rows());
    tombstones += static_cast<double>(live->tombstones());
    all_wals = all_wals && live->has_wal();
  }
  metrics_.SetGauge("db_epoch", epoch);
  metrics_.SetGauge("delta_rows", delta_rows);
  metrics_.SetGauge("delta_tombstones", tombstones);
  metrics_.SetGauge("wal_attached", all_wals ? 1.0 : 0.0);
  metrics_.SetGauge("num_shards", static_cast<double>(num_shards()));
  const double straggler_ratio =
      instruments_->straggler_ratio.load(std::memory_order_relaxed);
  if (straggler_ratio >= 0.0) {
    metrics_.SetGauge("shard_straggler_ratio", straggler_ratio);
  }
  // 0 = scalar, 1 = sse, 2 = avx2 (KernelLevel enum values) — which SIMD
  // dispatch level the verification hot path runs under.
  metrics_.SetGauge("kernel_level",
                    static_cast<double>(ActiveKernelLevel()));
}

std::string DiscoveryService::MetricsDump() {
  RefreshGauges();
  return metrics_.Dump();
}

std::string DiscoveryService::PrometheusMetrics() {
  RefreshGauges();
  return PrometheusText(metrics_);
}

}  // namespace qbe
