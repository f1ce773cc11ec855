#ifndef QBE_NET_SERVER_H_
#define QBE_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "obs/trace.h"

namespace qbe {

class DiscoveryService;

struct NetServerOptions {
  /// Loopback port to bind (0 = ephemeral; see NetServer::port()).
  uint16_t port = 0;
  /// Connection cap: an accept beyond it gets a typed kServerBusy error
  /// frame and an immediate close — never a silent drop.
  size_t max_connections = 256;
  /// Keep-alive connections idle longer than this get a typed
  /// kIdleTimeout error frame and are closed; 0 disables the sweep.
  int idle_timeout_ms = 60'000;

  /// Fraction of *connections* whose socket IO is traced (net_read /
  /// net_write spans under a per-connection root), using the same
  /// deterministic sampler as request tracing: connection n is traced iff
  /// splitmix64(42, n) < rate·2^64. The last NetServer::kTraceKeep
  /// stitched connection traces are kept (RecentNetTraces) and merged into
  /// `qbe_serve --trace-out` output.
  double trace_sample = 0.0;
};

/// The networked serving layer (DESIGN.md §16): one epoll thread owning
/// every socket, nonblocking reads/writes with partial-IO buffering, and
/// keep-alive pipelining — a client may stream any number of request
/// frames without waiting; responses come back in request order per
/// connection no matter how the service's workers interleave.
///
/// Requests dispatch into the existing DiscoveryService through
/// SubmitAsync, so bounded-queue admission control, per-request deadlines
/// and graceful drain apply end-to-end: an admission rejection travels
/// back as a normal response frame with status "rejected"; protocol-level
/// trouble (corrupt frame, version skew, connection cap, idle timeout,
/// shutdown) travels back as a typed kError frame — never a dropped
/// connection without an answer.
///
/// Threading: the epoll thread owns all socket state. Service worker
/// threads only encode the finished response, park it in the
/// connection's completion map, and wake the loop through an eventfd;
/// the loop moves in-order completions into the socket buffer and
/// flushes. Connections are shared_ptr so a late completion for a
/// closed connection parks harmlessly.
class NetServer {
 public:
  /// Binds 127.0.0.1:port and starts the loop thread. On failure ok() is
  /// false and error() says why. `service` must outlive the server.
  NetServer(DiscoveryService* service, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  uint16_t port() const { return port_; }

  /// On Stop(), in-flight requests get this long to finish and flush
  /// before the loop gives up and closes connections anyway.
  static constexpr int kDrainTimeoutMs = 30'000;
  /// Stitched connection traces kept for RecentNetTraces (oldest evicted).
  static constexpr size_t kTraceKeep = 16;

  /// Graceful drain: stop accepting, let in-flight requests finish and
  /// their responses flush (bounded by kDrainTimeoutMs), close
  /// everything, join the loop thread. Idempotent.
  void Stop();

  /// Stitched traces of sampled connections, oldest first.
  std::vector<Trace> RecentNetTraces() const;

 private:
  struct Connection;

  void Loop();
  void HandleAccept();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void HandleWritable(const std::shared_ptr<Connection>& conn);
  /// Extracts and dispatches every complete frame in conn's read buffer.
  void ProcessFrames(const std::shared_ptr<Connection>& conn);
  void DispatchRequest(const std::shared_ptr<Connection>& conn,
                       WireRequest request);
  /// Queues a typed error frame; `close_after` poisons the connection so
  /// it closes once the frame is flushed.
  void QueueError(const std::shared_ptr<Connection>& conn, WireFault fault,
                  const std::string& message, uint64_t request_id,
                  bool close_after);
  /// Moves in-order completed responses into the socket buffer.
  void DrainCompletions();
  void PumpConnection(const std::shared_ptr<Connection>& conn);
  /// Writes as much buffered output as the socket takes; arms EPOLLOUT on
  /// partial writes, closes on error or when a drained connection is done.
  void TryFlush(const std::shared_ptr<Connection>& conn);
  void SweepIdle();
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void Wake();
  /// service_->metrics() counter shorthand ("net_*" taxonomy).
  void Count(const char* name, int64_t delta = 1);

  DiscoveryService* service_;
  NetServerOptions options_;
  std::string error_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  // Stop() ran to completion (main thread only)

  // Epoll-thread-only state.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 0;

  // Completion queue: worker threads push, the loop drains on wake.
  std::mutex completions_mu_;
  std::vector<std::shared_ptr<Connection>> completed_;

  // Requests dispatched whose service callback has not yet run; Stop()
  // waits for zero so no callback can outlive the server.
  std::atomic<int64_t> in_flight_{0};
  std::mutex in_flight_mu_;
  std::condition_variable in_flight_cv_;

  TraceSampler sampler_;
  mutable std::mutex traces_mu_;
  std::deque<Trace> recent_traces_;  // newest at the back

  std::thread thread_;
};

}  // namespace qbe

#endif  // QBE_NET_SERVER_H_
