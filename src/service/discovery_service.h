#ifndef QBE_SERVICE_DISCOVERY_SERVICE_H_
#define QBE_SERVICE_DISCOVERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "core/example_table.h"
#include "ingest/compactor.h"
#include "ingest/live_db.h"
#include "obs/trace.h"
#include "service/concurrent_eval_cache.h"
#include "service/metrics.h"
#include "storage/database.h"
#include "util/thread_pool.h"

namespace qbe {

/// How a request left the service.
enum class RequestStatus {
  kOk,        // discovery ran to completion
  kRejected,  // fast-fail: the admission queue was full
  kTimedOut,  // the per-request deadline expired mid-verification
  kFailed,    // discovery refused the input (malformed ET, ...)
  kShutdown,  // submitted after Shutdown() began
};

const char* ToString(RequestStatus status);

struct ServiceResponse {
  RequestStatus status = RequestStatus::kOk;
  /// Meaningful only for kOk (and kFailed/kTimedOut, whose `error` is set).
  DiscoveryResult result;
  /// Submit-to-completion wall time (includes queueing); 0 for rejects.
  double latency_seconds = 0.0;
  /// Time spent waiting in the admission queue.
  double queue_seconds = 0.0;

  bool ok() const { return status == RequestStatus::kOk; }
};

struct ServiceOptions {
  /// Worker threads running discoveries.
  int num_workers = 4;
  /// Admission bound: requests beyond this many queued are rejected
  /// immediately (fast-fail), never buffered unboundedly.
  size_t max_queue_depth = 32;
  /// Per-request deadline applied from admission time; zero = none.
  /// Overridable per request in Submit.
  std::chrono::milliseconds default_timeout{0};
  /// Base discovery options for every request; `cache`, `deadline` and
  /// `trace` are overwritten by the service.
  DiscoveryOptions discovery;
  /// Test seam: runs on the worker thread right before a request's
  /// discovery starts (e.g. a latch that holds the worker busy so
  /// admission-control tests can fill the queue deterministically).
  std::function<void()> on_request_start;

  /// WAL to replay and arm at construction ("" = no WAL). Its ops become
  /// the starting overlay; subsequent Append/Tombstone calls are logged
  /// and durable after Flush. A log inconsistent with the database refuses
  /// to attach: the service still starts (read-only-safe) and wal_error()
  /// carries the reason.
  std::string wal_path;

  /// Background compaction: fold the overlay into a fresh base once this
  /// many ops are logged (0 = background compaction off; CompactNow still
  /// works). Also sets when the eval cache rotates: on every fold when
  /// positive, on every append and tombstone when 0.
  size_t compact_after_ops = 0;

  /// Snapshot refresh target for compaction. Required (by
  /// LiveDatabase::Compact) whenever a WAL is attached.
  std::string compact_snapshot_path;

  // --- observability (DESIGN.md §13) ---------------------------------------

  /// Fraction of requests traced, in [0, 1]. 0 = tracing off (the default;
  /// plain runs are bit-identical to an uninstrumented build). Sampling is
  /// deterministic: request n — the service-wide submission sequence
  /// number — is traced iff splitmix64(42, n) < rate·2^64 (TraceSampler's
  /// fixed seed), so a replayed workload samples the same requests.
  double trace_sample = 0.0;

  /// Stitched traces of the most recent sampled requests kept in memory
  /// for RecentTraces()/ChromeTraces() (ring buffer; oldest evicted).
  size_t trace_keep = 16;

  /// Structured slow-query log: a finished request whose end-to-end
  /// latency is >= this many milliseconds emits one JSON line (see
  /// obs/slow_log.h) through `slow_query_sink`. < 0 disables the log
  /// (default); 0 logs every request (useful in tests).
  double slow_query_ms = -1.0;

  /// Receives slow-query JSON lines (one object per call, no trailing
  /// newline). Default (unset): write to stderr. May be called from any
  /// worker thread; the sink must be thread-safe.
  std::function<void(const std::string&)> slow_query_sink;

  // --- sharded mode (DESIGN.md §15) ----------------------------------------

  /// Routing seed for appends in sharded mode; must equal the partition
  /// seed the shards were split with so unconstrained rows hash onto the
  /// same shards their future relatives will.
  uint64_t shard_seed = 0;
};

/// Concurrent discovery server: owns the live database (immutable base +
/// mutable ingestion overlay), a fixed worker pool, a bounded admission
/// queue, a sharded verification cache shared by all requests, and a
/// metrics registry. This is the architectural seam between the
/// single-threaded discovery kernel and a network frontend: Submit is the
/// whole request lifecycle — admission (reject when the queue is full),
/// queueing, deadline-bounded execution, and a future carrying the
/// response. Each request pins the epoch current at execution start and
/// sees that consistent snapshot for its whole run, no matter how many
/// appends, tombstones or compactions land meanwhile.
///
/// Thread safety: Submit/Discover may be called from any number of client
/// threads. Shutdown drains queued and in-flight requests (their futures
/// all resolve) and is idempotent; requests submitted during or after
/// shutdown resolve immediately with kShutdown.
class DiscoveryService {
 public:
  explicit DiscoveryService(Database db, ServiceOptions options = {});

  /// Sharded mode (DESIGN.md §15): one LiveDatabase per FK-co-located
  /// shard (from SplitDatabase or a shardset manifest; all sharing one
  /// catalog). Requests pin every shard's epoch and run DiscoverQueries
  /// over all the pinned views — results are bit-identical to serving the
  /// unpartitioned data. Appends route through RouteAppend so co-location
  /// survives ingestion. A one-element vector behaves exactly like the
  /// unsharded constructor.
  DiscoveryService(std::vector<Database> shards, ServiceOptions options);
  ~DiscoveryService();

  DiscoveryService(const DiscoveryService&) = delete;
  DiscoveryService& operator=(const DiscoveryService&) = delete;

  /// Submits one discovery request. `timeout` overrides the service-wide
  /// default (zero = no deadline). The deadline clock starts now, at
  /// admission — queue time counts against it, as an end-to-end SLA would.
  std::future<ServiceResponse> Submit(
      ExampleTable et,
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);

  /// Callback flavor of Submit for event-driven frontends (the epoll wire
  /// server, DESIGN.md §16): `done` fires exactly once with the response —
  /// on a worker thread for executed requests, or synchronously on the
  /// submitting thread for fast-fail paths (queue full, shutdown). The
  /// same admission control, deadlines, metrics, tracing and graceful
  /// drain apply as for the future flavor.
  void SubmitAsync(ExampleTable et,
                   std::optional<std::chrono::milliseconds> timeout,
                   std::function<void(ServiceResponse)> done);

  /// Blocking convenience wrapper around Submit.
  ServiceResponse Discover(
      const ExampleTable& et,
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);

  /// Stops admitting, drains queued + in-flight requests, joins workers.
  void Shutdown();

  // --- live ingestion (DESIGN.md §12) --------------------------------------
  //
  // Appends/tombstones publish a new epoch immediately; requests already
  // running keep their pinned epoch (consistent snapshots), requests
  // admitted afterwards see the new data. Each one bumps the version of
  // the relation it touches, which retires the cached outcomes of join
  // trees over that relation and no others (DESIGN.md §8). Every fold
  // rotates the eval cache's generations, freeing retired outcomes within
  // two folds; without background compaction (compact_after_ops == 0)
  // every append and tombstone rotates too. All mutators are thread-safe.

  /// Admits one appended row. On rejection (bad arity/type, duplicate PK)
  /// nothing changes and `*error` explains why.
  bool Append(int rel, std::vector<Value> values, std::string* error);

  /// Admits a batch under one epoch publish (all-or-nothing).
  bool AppendBatch(int rel, std::vector<std::vector<Value>> rows,
                   std::string* error);

  /// Deletes the live row with global id `row` of relation `rel`. In
  /// sharded mode row ids are shard-local, so this fails with an error
  /// directing callers to TombstoneAt.
  bool Tombstone(int rel, uint32_t row, std::string* error);

  /// Sharded-mode tombstone: deletes shard-local row `row` of `rel` in
  /// shard `shard`. Works unsharded too (shard must be 0).
  bool TombstoneAt(int shard, int rel, uint32_t row, std::string* error);

  /// Fsyncs the WAL; appends are durable after this returns (no-op without
  /// a WAL).
  bool Flush(std::string* error);

  /// Synchronously folds the overlay into a fresh base (and refreshes the
  /// snapshot per ServiceOptions::compact_snapshot_path). Waits for a fold
  /// the background compactor has in progress; appends keep committing
  /// while the merge runs.
  bool CompactNow(std::string* error, CompactionStats* stats = nullptr);

  /// Catalog/data of the currently published epoch (shard 0 in sharded
  /// mode — the catalog is shard-invariant). The reference is stable until
  /// the next compaction swaps the base (fine for single-threaded test
  /// setup; concurrent readers should Pin via live()).
  const Database& db() const { return *lives_[0]->Pin().base; }
  LiveDatabase& live() { return *lives_[0]; }
  int num_shards() const { return static_cast<int>(lives_.size()); }
  LiveDatabase& live_shard(int shard) { return *lives_[shard]; }
  /// Why ServiceOptions::wal_path failed to attach ("" = attached or none).
  const std::string& wal_error() const { return wal_error_; }
  ConcurrentEvalCache& cache() { return cache_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Metrics dump with cache gauges (size, bytes, hit rate) refreshed; the
  /// text the qbe_serve harness prints.
  std::string MetricsDump();

  /// Prometheus text exposition of the same metrics (gauges refreshed);
  /// what `qbe_serve --metrics-port` serves at GET /metrics.
  std::string PrometheusMetrics();

  /// Stitched traces of the most recent sampled requests, oldest first
  /// (bounded by ServiceOptions::trace_keep).
  std::vector<Trace> RecentTraces() const;

  /// RecentTraces() rendered as Chrome trace-event JSON (GET /traces).
  std::string ChromeTraces() const;

 private:
  struct Request;
  struct Instruments;

  /// Shared admission path of Submit/SubmitAsync: deadline arming, trace
  /// sampling, bounded-queue admission, fast-fail delivery.
  void Admit(std::shared_ptr<Request> request,
             std::optional<std::chrono::milliseconds> timeout);
  /// Resolves the request — through its callback when one is set, else its
  /// promise. Called exactly once per request.
  static void Deliver(Request& request, ServiceResponse&& response);
  void Run(const std::shared_ptr<Request>& request);
  /// Append without observing `append_seconds` (AppendBatch's sharded
  /// path calls it per row and observes the batch once).
  bool AppendRow(int rel, std::vector<Value> values, std::string* error);
  void RecordCompaction(const CompactionStats& stats);
  /// Runs after every committed append or tombstone: rotates the cache
  /// unless background compaction is on, whose folds then rotate it.
  void AfterMutation();
  /// Runs after every fold, and after every mutation without background
  /// compaction: drops the eval cache's previous generation and demotes the
  /// current one.
  void RotateCache();
  void RefreshGauges();

  // One LiveDatabase per shard (unsharded = one entry); unique_ptr keeps
  // addresses stable across vector growth during construction.
  std::vector<std::unique_ptr<LiveDatabase>> lives_;
  ServiceOptions options_;
  std::string wal_error_;
  // Serializes route-then-append in sharded mode: without it two
  // concurrent appends of related rows could both route unconstrained and
  // land on different shards, severing a future join edge.
  std::mutex route_mu_;
  ConcurrentEvalCache cache_;
  MetricsRegistry metrics_;
  // The request path's metrics, resolved once instead of by name on each
  // update (declared after the registry they point into).
  std::unique_ptr<Instruments> instruments_;
  Counter& eval_cache_generations_;
  std::atomic<bool> accepting_{true};
  TraceSampler sampler_;
  std::atomic<uint64_t> request_seq_{0};
  mutable std::mutex traces_mu_;
  std::deque<Trace> recent_traces_;  // newest at the back
  // Declared after the members Run touches so its destructor (which joins
  // workers running Run) fires first, while they are still alive.
  std::unique_ptr<ThreadPool> pool_;
  // Declared last: stopped/destroyed first so no compaction runs while the
  // service tears down. One compactor per shard in sharded mode.
  std::vector<std::unique_ptr<Compactor>> compactors_;
};

}  // namespace qbe

#endif  // QBE_SERVICE_DISCOVERY_SERVICE_H_
