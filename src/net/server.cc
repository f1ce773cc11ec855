#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "service/discovery_service.h"
#include "util/socket.h"

namespace qbe {

namespace {

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// ServiceResponse → the wire projection the acceptance checks compare
/// bit-exactly (SQL, scores, matched rows, candidate/verification counts).
WireResponse ProjectResponse(uint64_t id, const ServiceResponse& response) {
  WireResponse wire;
  wire.id = id;
  wire.status = ToString(response.status);
  wire.error = response.result.error;
  wire.timed_out = response.result.timed_out;
  wire.latency_seconds = response.latency_seconds;
  wire.queue_seconds = response.queue_seconds;
  wire.num_candidates = response.result.num_candidates;
  wire.verifications = response.result.counters.verifications;
  wire.estimated_cost = response.result.counters.estimated_cost;
  wire.pruned_without_verification =
      response.result.counters.pruned_without_verification;
  wire.queries.reserve(response.result.queries.size());
  for (const DiscoveredQuery& query : response.result.queries) {
    WireQuery wq;
    wq.sql = query.sql;
    wq.matched_rows = static_cast<uint32_t>(query.matched_rows);
    wq.score = query.score;
    wire.queries.push_back(std::move(wq));
  }
  return wire;
}

}  // namespace

/// Per-connection state. Socket-side fields (buffers, flags, spans) are
/// owned by the epoll thread; only `done` — the out-of-order completion
/// map — is shared with service workers, under `done_mu`.
struct NetServer::Connection {
  int fd = -1;
  uint64_t id = 0;

  std::string inbuf;       // unconsumed request bytes
  std::string outbuf;      // response bytes not yet accepted by the socket
  size_t out_offset = 0;   // how much of outbuf is already sent

  /// Pipelining bookkeeping: requests are numbered in arrival order and
  /// responses flush strictly in that order, no matter how the worker
  /// pool finishes them.
  uint64_t next_request_seq = 0;
  uint64_t next_flush_seq = 0;
  int64_t in_flight = 0;  // dispatched, response not yet moved to outbuf

  bool peer_closed = false;       // read saw EOF; flush what's owed, then close
  bool close_after_flush = false; // poisoned (protocol fault / idle / drain)
  bool epollout_armed = false;
  int64_t last_active_ms = 0;

  std::mutex done_mu;
  std::map<uint64_t, std::string> done;  // seq → encoded response frame

  /// Sampled connections record net_read/net_write spans under this root.
  std::unique_ptr<TraceContext> trace;
  SpanRef root_span = kNullSpan;
};

NetServer::NetServer(DiscoveryService* service, NetServerOptions options)
    : service_(service), options_(options) {
  sampler_.rate = options_.trace_sample;

  ListenSocket listener = OpenLoopbackListener(options_.port, /*backlog=*/128);
  if (!listener.ok()) {
    error_ = listener.error;
    return;
  }
  listen_fd_ = listener.fd;
  port_ = listener.port;
  if (!SetNonBlocking(listen_fd_, &error_)) {
    CloseFd(&listen_fd_);
    return;
  }
  epoll_fd_ = ::epoll_create1(0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    error_ = std::string(epoll_fd_ < 0 ? "epoll_create1: " : "eventfd: ") +
             std::strerror(errno);
    CloseFd(&listen_fd_);
    CloseFd(&epoll_fd_);
    CloseFd(&wake_fd_);
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  thread_ = std::thread([this] { Loop(); });
}

NetServer::~NetServer() { Stop(); }

void NetServer::Stop() {
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    Wake();
    thread_.join();
  }
  // No callback may outlive the server: every dispatched request's
  // completion has run (the service always delivers, even on shutdown).
  std::unique_lock<std::mutex> lock(in_flight_mu_);
  in_flight_cv_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
  lock.unlock();
  CloseFd(&listen_fd_);
  CloseFd(&epoll_fd_);
  CloseFd(&wake_fd_);
  stopped_ = true;
}

std::vector<Trace> NetServer::RecentNetTraces() const {
  std::lock_guard<std::mutex> lock(traces_mu_);
  return {recent_traces_.begin(), recent_traces_.end()};
}

void NetServer::Count(const char* name, int64_t delta) {
  service_->metrics().GetCounter(name).Increment(delta);
}

void NetServer::Wake() {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void NetServer::Loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  int64_t drain_deadline_ms = -1;
  bool accepting = true;

  for (;;) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && accepting) {
      // Drain begins: no new connections; in-flight work gets
      // kDrainTimeoutMs to finish and flush.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      accepting = false;
      drain_deadline_ms = NowMillis() + kDrainTimeoutMs;
    }
    if (stopping) {
      bool all_flushed = true;
      for (const auto& [fd, conn] : connections_) {
        std::lock_guard<std::mutex> lock(conn->done_mu);
        if (conn->in_flight > 0 || !conn->done.empty() ||
            conn->out_offset < conn->outbuf.size()) {
          all_flushed = false;
          break;
        }
      }
      if ((all_flushed &&
           in_flight_.load(std::memory_order_acquire) == 0) ||
          NowMillis() >= drain_deadline_ms) {
        break;
      }
    }

    int timeout_ms = -1;
    if (stopping) {
      timeout_ms = 20;
    } else if (options_.idle_timeout_ms > 0) {
      timeout_ms = std::min(options_.idle_timeout_ms, 500);
    }
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        if (accepting) HandleAccept();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(conn);
      if (conn->fd >= 0 && (events[i].events & EPOLLOUT) != 0) {
        HandleWritable(conn);
      }
    }
    DrainCompletions();
    if (options_.idle_timeout_ms > 0 && !stopping) SweepIdle();
    service_->metrics().SetGauge("net_active_connections",
                                 static_cast<double>(connections_.size()));
  }

  // Loop exit: close whatever is left (drain either completed or timed
  // out; late completions park in their connection's map and are freed
  // with it).
  std::vector<std::shared_ptr<Connection>> leftover;
  leftover.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) leftover.push_back(conn);
  for (const auto& conn : leftover) CloseConnection(conn);
  service_->metrics().SetGauge("net_active_connections", 0.0);
}

void NetServer::HandleAccept() {
  for (;;) {
    int client = AcceptRetry(listen_fd_);
    if (client < 0) return;  // EAGAIN (or transient failure)
    if (connections_.size() >= options_.max_connections) {
      // Over the cap: the peer still gets a typed answer, not a dropped
      // connection. The fd is fresh and blocking, so this tiny frame
      // lands in the socket buffer without stalling the loop.
      std::string frame;
      EncodeErrorFrame({0, WireFault::kServerBusy,
                        "connection cap of " +
                            std::to_string(options_.max_connections) +
                            " reached; retry later"},
                       &frame);
      WriteAll(client, frame.data(), frame.size());
      ::close(client);
      Count("net_connections_rejected");
      continue;
    }
    std::string nb_error;
    if (!SetNonBlocking(client, &nb_error)) {
      ::close(client);
      continue;
    }
    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = client;
    conn->id = next_connection_id_++;
    conn->last_active_ms = NowMillis();
    if (options_.trace_sample > 0.0 && sampler_.Sample(conn->id)) {
      conn->trace = std::make_unique<TraceContext>();
      conn->trace->set_request_id(conn->id);
      conn->root_span = conn->trace->OpenSpan(SpanKind::kRequest);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = client;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client, &ev);
    connections_.emplace(client, std::move(conn));
    Count("net_connections_accepted");
  }
}

void NetServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  int64_t total = 0;
  bool hard_error = false;
  {
    // The span covers only the socket drain + framing; it must be closed
    // before any path that might close the connection (closing stitches
    // the trace, and the root span has to outlive its children).
    ScopedSpan span(conn->trace.get(), SpanKind::kNetRead);
    for (;;) {
      ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->inbuf.append(buf, static_cast<size_t>(n));
        total += n;
        continue;
      }
      if (n == 0) {
        conn->peer_closed = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      hard_error = true;
      break;
    }
  }
  if (hard_error) {
    CloseConnection(conn);
    return;
  }
  if (total > 0) {
    conn->last_active_ms = NowMillis();
    Count("net_bytes_read", total);
  }
  ProcessFrames(conn);
  if (conn->fd >= 0) PumpConnection(conn);
}

void NetServer::ProcessFrames(const std::shared_ptr<Connection>& conn) {
  size_t consumed = 0;
  while (!conn->close_after_flush) {
    FrameView frame;
    WireFault fault = WireFault::kNone;
    std::string detail;
    FrameStatus status =
        TryExtractFrame(conn->inbuf.data() + consumed,
                        conn->inbuf.size() - consumed, &frame, &fault,
                        &detail);
    if (status == FrameStatus::kNeedMore) break;
    if (status == FrameStatus::kFault) {
      // The byte stream can no longer be trusted: answer with the typed
      // fault, drop the rest of the buffer, close once it flushes.
      Count("net_protocol_errors");
      QueueError(conn, fault, detail, 0, /*close_after=*/true);
      consumed = conn->inbuf.size();
      break;
    }
    if (frame.type == WireType::kDiscoverRequest) {
      WireRequest request;
      std::string decode_error;
      if (!DecodeRequestPayload(frame.payload, frame.payload_bytes, &request,
                                &decode_error)) {
        Count("net_protocol_errors");
        QueueError(conn, WireFault::kBadPayload, decode_error, 0,
                   /*close_after=*/true);
        consumed = conn->inbuf.size();
        break;
      }
      if (stopping_.load(std::memory_order_acquire)) {
        QueueError(conn, WireFault::kShuttingDown,
                   "server is draining; no new requests", request.id,
                   /*close_after=*/false);
      } else {
        DispatchRequest(conn, std::move(request));
      }
    } else {
      // Responses/errors flow server→client only.
      Count("net_protocol_errors");
      QueueError(conn, WireFault::kBadType,
                 "clients may only send discover requests", 0,
                 /*close_after=*/true);
      consumed = conn->inbuf.size();
      break;
    }
    consumed += frame.frame_bytes;
  }
  if (consumed > 0) conn->inbuf.erase(0, consumed);
}

void NetServer::DispatchRequest(const std::shared_ptr<Connection>& conn,
                                WireRequest request) {
  const uint64_t seq = conn->next_request_seq++;
  conn->in_flight++;
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  Count("net_requests");

  std::optional<std::chrono::milliseconds> timeout;
  if (request.deadline_ms > 0) {
    timeout = std::chrono::milliseconds(request.deadline_ms);
  }
  const uint64_t wire_id = request.id;
  service_->SubmitAsync(
      request.ToExampleTable(), timeout,
      [this, conn, seq, wire_id](ServiceResponse response) {
        std::string frame;
        EncodeResponseFrame(ProjectResponse(wire_id, response), &frame);
        {
          std::lock_guard<std::mutex> lock(conn->done_mu);
          conn->done.emplace(seq, std::move(frame));
        }
        {
          std::lock_guard<std::mutex> lock(completions_mu_);
          completed_.push_back(conn);
        }
        Wake();
        {
          // Notify while holding the mutex: Stop()'s waiter cannot return
          // from wait() (and destroy the cv) until this thread has fully
          // left notify_all() and released the lock.
          std::lock_guard<std::mutex> lock(in_flight_mu_);
          in_flight_.fetch_sub(1, std::memory_order_acq_rel);
          in_flight_cv_.notify_all();
        }
      });
}

void NetServer::QueueError(const std::shared_ptr<Connection>& conn,
                           WireFault fault, const std::string& message,
                           uint64_t request_id, bool close_after) {
  EncodeErrorFrame({request_id, fault, message}, &conn->outbuf);
  if (close_after) conn->close_after_flush = true;
}

void NetServer::DrainCompletions() {
  std::vector<std::shared_ptr<Connection>> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completed_);
  }
  for (const auto& conn : batch) {
    if (conn->fd < 0) continue;  // closed meanwhile; response is dropped
    PumpConnection(conn);
  }
}

void NetServer::PumpConnection(const std::shared_ptr<Connection>& conn) {
  // Move every in-order completed response into the socket buffer —
  // pipelined responses leave in exactly the order their requests came.
  {
    std::lock_guard<std::mutex> lock(conn->done_mu);
    for (auto it = conn->done.find(conn->next_flush_seq);
         it != conn->done.end();
         it = conn->done.find(conn->next_flush_seq)) {
      conn->outbuf.append(it->second);
      conn->done.erase(it);
      conn->next_flush_seq++;
      conn->in_flight--;
      Count("net_responses");
    }
  }
  TryFlush(conn);
}

void NetServer::HandleWritable(const std::shared_ptr<Connection>& conn) {
  TryFlush(conn);
}

void NetServer::TryFlush(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  int64_t total = 0;
  bool hard_error = false;
  bool socket_full = false;
  {
    // Span scoped to the send loop only: it must close before any
    // CloseConnection below stitches the trace.
    ScopedSpan span(conn->trace.get(), SpanKind::kNetWrite);
    while (conn->out_offset < conn->outbuf.size()) {
      ssize_t w = ::send(conn->fd, conn->outbuf.data() + conn->out_offset,
                         conn->outbuf.size() - conn->out_offset, MSG_NOSIGNAL);
      if (w > 0) {
        conn->out_offset += static_cast<size_t>(w);
        total += w;
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        socket_full = true;
        break;
      }
      hard_error = true;
      break;
    }
  }
  if (total > 0) {
    conn->last_active_ms = NowMillis();
    Count("net_bytes_written", total);
  }
  if (hard_error) {
    CloseConnection(conn);
    return;
  }
  if (socket_full) {
    // Keep the unsent tail buffered and let EPOLLOUT resume it.
    if (!conn->epollout_armed) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT;
      ev.data.fd = conn->fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
      conn->epollout_armed = true;
    }
    return;
  }
  // Fully flushed: reclaim the buffer and disarm EPOLLOUT.
  conn->outbuf.clear();
  conn->out_offset = 0;
  if (conn->epollout_armed) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->epollout_armed = false;
  }
  bool owes_nothing;
  {
    std::lock_guard<std::mutex> lock(conn->done_mu);
    owes_nothing = conn->in_flight == 0 && conn->done.empty();
  }
  if (conn->close_after_flush || (conn->peer_closed && owes_nothing)) {
    CloseConnection(conn);
  }
}

void NetServer::SweepIdle() {
  const int64_t now = NowMillis();
  std::vector<std::shared_ptr<Connection>> idle;
  for (const auto& [fd, conn] : connections_) {
    if (now - conn->last_active_ms < options_.idle_timeout_ms) continue;
    bool owes_nothing;
    {
      std::lock_guard<std::mutex> lock(conn->done_mu);
      owes_nothing = conn->in_flight == 0 && conn->done.empty();
    }
    // A connection mid-request is busy, not idle, however long the
    // discovery takes.
    if (owes_nothing && conn->out_offset >= conn->outbuf.size()) {
      idle.push_back(conn);
    }
  }
  for (const auto& conn : idle) {
    Count("net_idle_timeouts");
    QueueError(conn, WireFault::kIdleTimeout,
               "idle longer than " + std::to_string(options_.idle_timeout_ms) +
                   " ms",
               0, /*close_after=*/true);
    TryFlush(conn);
  }
}

void NetServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  const int fd = conn->fd;
  ::close(conn->fd);
  conn->fd = -1;
  connections_.erase(fd);
  Count("net_connections_closed");
  if (conn->trace != nullptr) {
    conn->trace->CloseSpan(conn->root_span);
    Trace stitched = conn->trace->Stitch();
    std::lock_guard<std::mutex> lock(traces_mu_);
    recent_traces_.push_back(std::move(stitched));
    while (recent_traces_.size() > kTraceKeep) {
      recent_traces_.pop_front();
    }
  }
}

}  // namespace qbe
