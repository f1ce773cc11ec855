// End-to-end tests of the networked serving layer (DESIGN.md §16): a real
// NetServer on an ephemeral loopback port, driven through NetClient and
// raw sockets. The core assertion is bit-identity: discovery served over
// the wire returns exactly the SQL, scores and per-request verification
// counts that the in-process DiscoveryService returns for the same
// workload. Run under both sanitizers as well as plain builds.

#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datagen/et_gen.h"
#include "datagen/retailer.h"
#include "net/client.h"
#include "net/wire.h"
#include "service/discovery_service.h"
#include "util/socket.h"

namespace qbe {
namespace {

ExampleTable Et(const std::vector<std::vector<std::string>>& rows) {
  ExampleTable et = ExampleTable::WithColumns(static_cast<int>(rows[0].size()));
  for (const std::vector<std::string>& row : rows) et.AddRow(row);
  return et;
}

std::vector<ExampleTable> RetailerWorkload() {
  return {
      MakeFigure2ExampleTable(),
      Et({{"Mike", "ThinkPad", "Office"}}),
      Et({{"Mike"}}),
      Et({{"Mary", "iPad"}}),
      Et({{"Mike", "ThinkPad", "Office"}, {"Mary", "iPad", ""}}),
      Et({{"Bob", "", "Dropbox"}, {"Mike", "ThinkPad", "Office"}}),
  };
}

ServiceOptions SmallServiceOptions() {
  ServiceOptions options;
  options.num_workers = 2;
  return options;
}

/// The deterministic projection of a response: everything except wall
/// times. Two runs over fresh, identically-configured services must agree
/// on every field here, networked or not.
struct ResultKey {
  std::string status;
  std::vector<std::string> sql;
  std::vector<double> scores;
  std::vector<uint32_t> matched;
  uint64_t num_candidates = 0;
  int64_t verifications = 0;
  int64_t estimated_cost = 0;
  int64_t pruned = 0;

  bool operator==(const ResultKey& other) const {
    return status == other.status && sql == other.sql &&
           scores == other.scores && matched == other.matched &&
           num_candidates == other.num_candidates &&
           verifications == other.verifications &&
           estimated_cost == other.estimated_cost && pruned == other.pruned;
  }
};

ResultKey KeyOf(const ServiceResponse& response) {
  ResultKey key;
  key.status = ToString(response.status);
  for (const DiscoveredQuery& q : response.result.queries) {
    key.sql.push_back(q.sql);
    key.scores.push_back(q.score);
    key.matched.push_back(static_cast<uint32_t>(q.matched_rows));
  }
  key.num_candidates = response.result.num_candidates;
  key.verifications = response.result.counters.verifications;
  key.estimated_cost = response.result.counters.estimated_cost;
  key.pruned = response.result.counters.pruned_without_verification;
  return key;
}

ResultKey KeyOf(const WireResponse& response) {
  ResultKey key;
  key.status = response.status;
  for (const WireQuery& q : response.queries) {
    key.sql.push_back(q.sql);
    key.scores.push_back(q.score);
    key.matched.push_back(q.matched_rows);
  }
  key.num_candidates = response.num_candidates;
  key.verifications = response.verifications;
  key.estimated_cost = response.estimated_cost;
  key.pruned = response.pruned_without_verification;
  return key;
}

TEST(NetLoopbackTest, SequentialResultsBitIdenticalToInProcess) {
  // Two fresh services with identical options: one driven in-process, one
  // over the wire. Sequential replay keeps the shared eval cache's
  // request order identical, so even the verification counts — which are
  // cache-history-dependent — must match bit-for-bit.
  std::vector<ExampleTable> workload = RetailerWorkload();

  DiscoveryService direct(MakeRetailerDatabase(), SmallServiceOptions());
  std::vector<ResultKey> expected;
  for (const ExampleTable& et : workload) {
    expected.push_back(KeyOf(direct.Discover(et)));
  }

  DiscoveryService served(MakeRetailerDatabase(), SmallServiceOptions());
  NetServer server(&served);
  ASSERT_TRUE(server.ok()) << server.error();
  NetClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.error();
  for (size_t i = 0; i < workload.size(); ++i) {
    WireRequest request =
        WireRequest::FromExampleTable(workload[i], /*id=*/i + 1);
    ClientReply reply;
    ASSERT_TRUE(client.Call(request, &reply)) << client.error();
    ASSERT_FALSE(reply.is_error) << reply.error.message;
    EXPECT_EQ(reply.response.id, i + 1);  // ids echo verbatim
    EXPECT_TRUE(KeyOf(reply.response) == expected[i]) << "request " << i;
  }
  server.Stop();
}

TEST(NetLoopbackTest, EightConcurrentClientsMatchInProcessResults) {
  // Concurrency makes eval-cache history — and with it the verification
  // counts — order-dependent, so here the assertion is the SQL sets,
  // scores and matched-row counts: the paper-visible output.
  std::vector<ExampleTable> workload = RetailerWorkload();

  DiscoveryService direct(MakeRetailerDatabase(), SmallServiceOptions());
  std::vector<std::vector<std::string>> expected_sql;
  std::vector<std::vector<double>> expected_scores;
  for (const ExampleTable& et : workload) {
    ServiceResponse response = direct.Discover(et);
    ASSERT_EQ(response.status, RequestStatus::kOk);
    ResultKey key = KeyOf(response);
    expected_sql.push_back(key.sql);
    expected_scores.push_back(key.scores);
  }

  ServiceOptions options = SmallServiceOptions();
  options.num_workers = 4;
  DiscoveryService served(MakeRetailerDatabase(), options);
  NetServer server(&served);
  ASSERT_TRUE(server.ok()) << server.error();

  constexpr int kClients = 8;
  constexpr int kRepeat = 3;
  std::atomic<int> mismatches{0};
  std::atomic<int> transport_errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      NetClient client("127.0.0.1", server.port());
      if (!client.ok()) {
        transport_errors.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRepeat; ++r) {
        for (size_t q = 0; q < workload.size(); ++q) {
          size_t pick = (q + static_cast<size_t>(c)) % workload.size();
          WireRequest request =
              WireRequest::FromExampleTable(workload[pick], /*id=*/pick);
          ClientReply reply;
          if (!client.Call(request, &reply)) {
            transport_errors.fetch_add(1);
            return;
          }
          if (reply.is_error || reply.response.status != "ok") {
            mismatches.fetch_add(1);
            continue;
          }
          ResultKey key = KeyOf(reply.response);
          if (key.sql != expected_sql[pick] ||
              key.scores != expected_scores[pick]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  server.Stop();
}

TEST(NetLoopbackTest, PipelinedResponsesArriveInRequestOrder) {
  std::vector<ExampleTable> workload = RetailerWorkload();
  DiscoveryService service(MakeRetailerDatabase(), SmallServiceOptions());
  NetServer server(&service);
  ASSERT_TRUE(server.ok()) << server.error();

  NetClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.error();
  // Stream every request before reading a single reply; replies must come
  // back in exactly the order sent, whatever the worker pool did.
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_TRUE(client.Send(
        WireRequest::FromExampleTable(workload[i], /*id=*/100 + i)))
        << client.error();
  }
  for (size_t i = 0; i < workload.size(); ++i) {
    ClientReply reply;
    ASSERT_TRUE(client.Receive(&reply)) << client.error();
    ASSERT_FALSE(reply.is_error);
    EXPECT_EQ(reply.response.id, 100 + i);
    EXPECT_EQ(reply.response.status, "ok");
  }
  server.Stop();
}

TEST(NetLoopbackTest, QueueFullRejectionTravelsAsTypedResponse) {
  // Admission control must reach the remote client as a "rejected"
  // response, not a dropped connection: gate the single worker, fill the
  // depth-1 queue, and pipeline one more request.
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;

  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  options.on_request_start = [&] {
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  DiscoveryService service(MakeRetailerDatabase(), options);
  NetServer server(&service);
  ASSERT_TRUE(server.ok()) << server.error();

  NetClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.error();
  ExampleTable et = Et({{"Mike"}});

  ASSERT_TRUE(client.Send(WireRequest::FromExampleTable(et, 1)));
  {
    // The worker now owns request 1; the queue is empty.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  ASSERT_TRUE(client.Send(WireRequest::FromExampleTable(et, 2)));
  // Give request 2 time to cross the loopback and occupy the queue slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(client.Send(WireRequest::FromExampleTable(et, 3)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  std::vector<std::string> statuses;
  for (uint64_t expect_id = 1; expect_id <= 3; ++expect_id) {
    ClientReply reply;
    ASSERT_TRUE(client.Receive(&reply)) << client.error();
    ASSERT_FALSE(reply.is_error);
    EXPECT_EQ(reply.response.id, expect_id);  // rejection kept its place
    statuses.push_back(reply.response.status);
  }
  EXPECT_EQ(statuses[0], "ok");
  EXPECT_EQ(statuses[1], "ok");
  EXPECT_EQ(statuses[2], "rejected");
  server.Stop();
}

/// Reads one frame from a raw socket (blocking), asserting it is a typed
/// error, and returns it.
WireErrorMsg ReadErrorFrame(int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    FrameView frame;
    WireFault fault = WireFault::kNone;
    std::string detail;
    FrameStatus status = TryExtractFrame(buffer.data(), buffer.size(), &frame,
                                         &fault, &detail);
    EXPECT_NE(status, FrameStatus::kFault) << detail;
    if (status == FrameStatus::kFrame) {
      EXPECT_EQ(frame.type, WireType::kError);
      WireErrorMsg error;
      std::string decode_error;
      EXPECT_TRUE(DecodeErrorPayload(frame.payload, frame.payload_bytes,
                                     &error, &decode_error))
          << decode_error;
      return error;
    }
    ssize_t n = ReadRetry(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      ADD_FAILURE() << "connection closed before an error frame arrived";
      return {};
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

/// True once the peer has closed: read returns 0 (any stray bytes first
/// are drained).
bool ReadsEof(int fd) {
  char chunk[4096];
  for (;;) {
    ssize_t n = ReadRetry(fd, chunk, sizeof(chunk));
    if (n == 0) return true;
    if (n < 0) return false;
  }
}

TEST(NetLoopbackTest, GarbageBytesGetTypedErrorThenClose) {
  DiscoveryService service(MakeRetailerDatabase(), SmallServiceOptions());
  NetServer server(&service);
  ASSERT_TRUE(server.ok()) << server.error();

  std::string error;
  int fd = ConnectTcp("127.0.0.1", server.port(), &error);
  ASSERT_GE(fd, 0) << error;
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(WriteAll(fd, garbage, sizeof(garbage) - 1));
  WireErrorMsg wire_error = ReadErrorFrame(fd);
  EXPECT_EQ(wire_error.fault, WireFault::kBadMagic);
  EXPECT_TRUE(ReadsEof(fd));
  CloseFd(&fd);
  server.Stop();
}

TEST(NetLoopbackTest, CorruptFrameGetsBadChecksumThenClose) {
  DiscoveryService service(MakeRetailerDatabase(), SmallServiceOptions());
  NetServer server(&service);
  ASSERT_TRUE(server.ok()) << server.error();

  std::string frame;
  EncodeRequestFrame(WireRequest::FromExampleTable(Et({{"Mike"}}), 1),
                     &frame);
  frame[kWireHeaderBytes] =
      static_cast<char>(frame[kWireHeaderBytes] ^ 0x40);  // payload flip

  std::string error;
  int fd = ConnectTcp("127.0.0.1", server.port(), &error);
  ASSERT_GE(fd, 0) << error;
  ASSERT_TRUE(WriteAll(fd, frame.data(), frame.size()));
  WireErrorMsg wire_error = ReadErrorFrame(fd);
  EXPECT_EQ(wire_error.fault, WireFault::kBadChecksum);
  EXPECT_TRUE(ReadsEof(fd));
  CloseFd(&fd);
  server.Stop();
}

TEST(NetLoopbackTest, StructurallyInvalidPayloadIsBadPayload) {
  DiscoveryService service(MakeRetailerDatabase(), SmallServiceOptions());
  NetServer server(&service);
  ASSERT_TRUE(server.ok()) << server.error();

  // Framing-valid, structurally invalid: one row but zero columns, no
  // columns at all, and one column more than an ExampleTable holds.
  WireRequest one_row_no_columns;
  one_row_no_columns.rows.push_back({});
  WireRequest too_wide;
  too_wide.column_names.resize(ExampleTable::kMaxColumns + 1);
  too_wide.rows.emplace_back(ExampleTable::kMaxColumns + 1,
                             EtCell{"Mike", false});
  for (WireRequest bad : {one_row_no_columns, WireRequest{}, too_wide}) {
    bad.id = 9;
    std::string frame;
    EncodeRequestFrame(bad, &frame);

    std::string error;
    int fd = ConnectTcp("127.0.0.1", server.port(), &error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(WriteAll(fd, frame.data(), frame.size()));
    WireErrorMsg wire_error = ReadErrorFrame(fd);
    EXPECT_EQ(wire_error.fault, WireFault::kBadPayload)
        << bad.column_names.size() << " columns";
    EXPECT_TRUE(ReadsEof(fd));
    CloseFd(&fd);
  }
  server.Stop();
}

TEST(NetLoopbackTest, ConnectionCapAnswersServerBusy) {
  DiscoveryService service(MakeRetailerDatabase(), SmallServiceOptions());
  NetServerOptions net_options;
  net_options.max_connections = 1;
  NetServer server(&service, net_options);
  ASSERT_TRUE(server.ok()) << server.error();

  NetClient first("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok()) << first.error();
  // A round trip guarantees the server has registered the connection.
  ClientReply reply;
  ASSERT_TRUE(first.Call(WireRequest::FromExampleTable(Et({{"Mike"}}), 1),
                         &reply));
  ASSERT_FALSE(reply.is_error);

  NetClient second("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok()) << second.error();
  ClientReply busy;
  ASSERT_TRUE(second.Receive(&busy)) << second.error();
  ASSERT_TRUE(busy.is_error);
  EXPECT_EQ(busy.error.fault, WireFault::kServerBusy);
  EXPECT_FALSE(second.Receive(&busy));  // and then the socket closes

  // The surviving connection keeps working.
  ASSERT_TRUE(first.Call(WireRequest::FromExampleTable(Et({{"Mary"}}), 2),
                         &reply));
  EXPECT_FALSE(reply.is_error);
  server.Stop();
}

TEST(NetLoopbackTest, IdleConnectionGetsTypedTimeout) {
  DiscoveryService service(MakeRetailerDatabase(), SmallServiceOptions());
  NetServerOptions net_options;
  net_options.idle_timeout_ms = 100;
  NetServer server(&service, net_options);
  ASSERT_TRUE(server.ok()) << server.error();

  NetClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.error();
  ClientReply reply;
  ASSERT_TRUE(client.Call(WireRequest::FromExampleTable(Et({{"Mike"}}), 1),
                          &reply));
  ASSERT_FALSE(reply.is_error);

  // Now go quiet; the sweep must close us with a typed reason.
  ASSERT_TRUE(client.Receive(&reply)) << client.error();
  ASSERT_TRUE(reply.is_error);
  EXPECT_EQ(reply.error.fault, WireFault::kIdleTimeout);
  EXPECT_FALSE(client.Receive(&reply));
  server.Stop();
}

TEST(NetLoopbackTest, GracefulStopDeliversInFlightResponse) {
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;

  ServiceOptions options;
  options.num_workers = 1;
  options.on_request_start = [&] {
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  DiscoveryService service(MakeRetailerDatabase(), options);
  NetServer server(&service);
  ASSERT_TRUE(server.ok()) << server.error();

  NetClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.error();
  ASSERT_TRUE(client.Send(WireRequest::FromExampleTable(Et({{"Mike"}}), 1)));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }

  // Stop while the request is mid-flight: drain must hold the connection
  // open until the response lands on the client.
  std::thread stopper([&] { server.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  ClientReply reply;
  ASSERT_TRUE(client.Receive(&reply)) << client.error();
  ASSERT_FALSE(reply.is_error);
  EXPECT_EQ(reply.response.status, "ok");
  EXPECT_EQ(reply.response.id, 1u);
  stopper.join();
  EXPECT_FALSE(client.Receive(&reply));  // drained and closed
}

TEST(NetLoopbackTest, NetMetricsAreRecorded) {
  DiscoveryService service(MakeRetailerDatabase(), SmallServiceOptions());
  NetServer server(&service);
  ASSERT_TRUE(server.ok()) << server.error();
  {
    NetClient client("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.error();
    ClientReply reply;
    ASSERT_TRUE(client.Call(WireRequest::FromExampleTable(Et({{"Mike"}}), 1),
                            &reply));
  }
  server.Stop();
  MetricsRegistry& metrics = service.metrics();
  EXPECT_EQ(metrics.GetCounter("net_connections_accepted").Value(), 1);
  EXPECT_EQ(metrics.GetCounter("net_requests").Value(), 1);
  EXPECT_EQ(metrics.GetCounter("net_responses").Value(), 1);
  EXPECT_EQ(metrics.GetCounter("net_connections_closed").Value(), 1);
  EXPECT_GT(metrics.GetCounter("net_bytes_read").Value(), 0);
  EXPECT_GT(metrics.GetCounter("net_bytes_written").Value(), 0);
}

TEST(NetLoopbackTest, SampledConnectionsRecordNetSpans) {
  DiscoveryService service(MakeRetailerDatabase(), SmallServiceOptions());
  NetServerOptions net_options;
  net_options.trace_sample = 1.0;
  NetServer server(&service, net_options);
  ASSERT_TRUE(server.ok()) << server.error();
  {
    NetClient client("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.error();
    ClientReply reply;
    ASSERT_TRUE(client.Call(WireRequest::FromExampleTable(Et({{"Mike"}}), 1),
                            &reply));
  }
  server.Stop();
  std::vector<Trace> traces = server.RecentNetTraces();
  ASSERT_EQ(traces.size(), 1u);
  std::string why;
  EXPECT_TRUE(traces[0].WellFormed(&why)) << why;
  EXPECT_GE(traces[0].PhaseCount(SpanKind::kNetRead), 1u);
  EXPECT_GE(traces[0].PhaseCount(SpanKind::kNetWrite), 1u);
}

}  // namespace
}  // namespace qbe
