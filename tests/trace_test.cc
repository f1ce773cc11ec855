// Tests for the request-scoped tracing layer (obs/, DESIGN.md §13): span
// tree invariants, bounded-capacity drops, deterministic sampling, golden
// exporter output (Prometheus text, Chrome trace JSON, slow-query JSON),
// the loopback metrics endpoint, and end-to-end trace coverage of a real
// discovery request — both standalone and through DiscoveryService.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/discovery.h"
#include "datagen/retailer.h"
#include "kernels/kernels.h"
#include "obs/metrics_http.h"
#include "obs/prom.h"
#include "obs/slow_log.h"
#include "service/discovery_service.h"
#include "service/metrics.h"
#include "shard/partition.h"

namespace qbe {
namespace {

// Injectable test clock: a plain function reading a global, because
// TraceConfig::clock is a bare function pointer (hot-path cheapness).
std::atomic<int64_t> g_fake_now_ns{0};
int64_t FakeClock() { return g_fake_now_ns.load(std::memory_order_relaxed); }

TraceConfig FakeClockConfig() {
  TraceConfig config;
  config.clock = &FakeClock;
  return config;
}

TEST(TraceContextTest, NestedSpansFormAWellFormedTree) {
  g_fake_now_ns = 0;
  TraceContext ctx(FakeClockConfig());
  g_fake_now_ns = 100;
  SpanRef root = ctx.OpenSpan(SpanKind::kRequest);
  g_fake_now_ns = 200;
  SpanRef gen = ctx.OpenSpan(SpanKind::kCandidateGen);
  g_fake_now_ns = 350;
  ctx.CloseSpan(gen);
  g_fake_now_ns = 400;
  SpanRef verify = ctx.OpenSpan(SpanKind::kFilter);
  g_fake_now_ns = 900;
  ctx.CloseSpan(verify);
  g_fake_now_ns = 1000;
  ctx.CloseSpan(root);

  Trace trace = ctx.Stitch();
  std::string why;
  EXPECT_TRUE(trace.WellFormed(&why)) << why;
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.spans[0].kind, SpanKind::kRequest);
  EXPECT_EQ(trace.spans[0].parent, -1);
  EXPECT_EQ(trace.spans[1].parent, 0);  // candidate_gen under request
  EXPECT_EQ(trace.spans[2].parent, 0);  // verify under request
  EXPECT_EQ(trace.PhaseNs(SpanKind::kRequest), 900);
  EXPECT_EQ(trace.PhaseNs(SpanKind::kCandidateGen), 150);
  EXPECT_EQ(trace.PhaseNs(SpanKind::kFilter), 500);
  EXPECT_EQ(trace.PhaseCount(SpanKind::kCandidateGen), 1u);
  EXPECT_EQ(trace.PhaseCount(SpanKind::kEvalExec), 0u);
}

TEST(TraceContextTest, NullContextScopedSpanIsANoop) {
  // Every instrumentation site passes nullptr when tracing is off; the
  // RAII wrapper must tolerate it.
  ScopedSpan span(nullptr, SpanKind::kEvalExec);
  EXPECT_EQ(span.ref(), kNullSpan);
}

TEST(TraceContextTest, UnclosedSpanIsDetected) {
  g_fake_now_ns = 0;
  TraceContext ctx(FakeClockConfig());
  ctx.OpenSpan(SpanKind::kCandidateGen);
  Trace trace = ctx.Stitch();
  std::string why;
  EXPECT_FALSE(trace.WellFormed(&why));
  EXPECT_NE(why.find("unclosed"), std::string::npos);
}

TEST(TraceContextTest, ChildEscapingItsParentIsDetected) {
  g_fake_now_ns = 0;
  TraceContext ctx(FakeClockConfig());
  g_fake_now_ns = 10;
  SpanRef a = ctx.OpenSpan(SpanKind::kRequest);
  g_fake_now_ns = 20;
  SpanRef b = ctx.OpenSpan(SpanKind::kFilter);
  g_fake_now_ns = 30;
  ctx.CloseSpan(a);  // parent closed while the child is still open
  g_fake_now_ns = 40;
  ctx.CloseSpan(b);
  Trace trace = ctx.Stitch();
  std::string why;
  EXPECT_FALSE(trace.WellFormed(&why));
  EXPECT_NE(why.find("escapes parent"), std::string::npos);
}

TEST(TraceContextTest, FullLaneDropsAndCountsSpans) {
  TraceConfig config = FakeClockConfig();
  config.max_spans_per_lane = 4;
  g_fake_now_ns = 0;
  TraceContext ctx(config);
  for (int i = 0; i < 10; ++i) {
    g_fake_now_ns += 10;
    SpanRef ref = ctx.OpenSpan(SpanKind::kEvalExec);
    g_fake_now_ns += 10;
    ctx.CloseSpan(ref);  // no-op for the dropped (null) refs
  }
  Trace trace = ctx.Stitch();
  EXPECT_EQ(trace.spans.size(), 4u);
  EXPECT_EQ(trace.dropped_spans, 6);
  EXPECT_EQ(trace.counter(TraceCounter::kDroppedSpans), 6);
  std::string why;
  EXPECT_TRUE(trace.WellFormed(&why)) << why;  // what was recorded is sound
}

TEST(TraceContextTest, CrossThreadSpansAttachViaParentHint) {
  g_fake_now_ns = 0;
  TraceContext ctx(FakeClockConfig());
  g_fake_now_ns = 100;
  SpanRef verify = ctx.OpenSpan(SpanKind::kFilter);
  std::thread worker([&ctx, verify] {
    // A verify-pool worker's lane has no enclosing span; the hint makes
    // its evaluations children of the request's verify span.
    g_fake_now_ns = 200;
    ScopedSpan eval(&ctx, SpanKind::kEvalExec, verify);
    g_fake_now_ns = 300;
  });
  worker.join();
  g_fake_now_ns = 400;
  ctx.CloseSpan(verify);

  Trace trace = ctx.Stitch();
  std::string why;
  EXPECT_TRUE(trace.WellFormed(&why)) << why;
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[1].kind, SpanKind::kEvalExec);
  EXPECT_EQ(trace.spans[1].parent, 0);
  EXPECT_NE(trace.spans[0].lane, trace.spans[1].lane);
}

TEST(TraceContextTest, EnclosingSpanWinsOverParentHint) {
  g_fake_now_ns = 0;
  TraceContext ctx(FakeClockConfig());
  SpanRef a = ctx.OpenSpan(SpanKind::kRequest);
  SpanRef b = ctx.OpenSpan(SpanKind::kEvalExec, /*parent_hint=*/kNullSpan);
  g_fake_now_ns = 50;
  ctx.CloseSpan(b);
  ctx.CloseSpan(a);
  Trace trace = ctx.Stitch();
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[1].parent, 0);  // nested under a, hint ignored
}

TEST(TraceContextTest, CountersSumAcrossLanes) {
  TraceContext ctx;
  ctx.Count(TraceCounter::kQueriesVerified, 3);
  std::thread worker([&ctx] {
    ctx.Count(TraceCounter::kQueriesVerified, 4);
    ctx.Count(TraceCounter::kEvalCacheHits, 1);
  });
  worker.join();
  Trace trace = ctx.Stitch();
  EXPECT_EQ(trace.counter(TraceCounter::kQueriesVerified), 7);
  EXPECT_EQ(trace.counter(TraceCounter::kEvalCacheHits), 1);
}

TEST(TraceSamplerTest, DeterministicAndRateProportional) {
  TraceSampler sampler{0.3, 1234};
  TraceSampler again{0.3, 1234};
  int sampled = 0;
  for (uint64_t n = 0; n < 10000; ++n) {
    bool hit = sampler.Sample(n);
    EXPECT_EQ(hit, again.Sample(n)) << n;  // same (seed, n) → same decision
    sampled += hit ? 1 : 0;
  }
  EXPECT_NEAR(sampled / 10000.0, 0.3, 0.03);

  TraceSampler off{0.0, 1234};
  TraceSampler all{1.0, 1234};
  for (uint64_t n = 0; n < 100; ++n) {
    EXPECT_FALSE(off.Sample(n));
    EXPECT_TRUE(all.Sample(n));
  }

  // A different seed samples a different subset.
  TraceSampler other{0.3, 99};
  bool any_difference = false;
  for (uint64_t n = 0; n < 1000 && !any_difference; ++n) {
    any_difference = sampler.Sample(n) != other.Sample(n);
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChromeTraceJsonTest, GoldenOutput) {
  g_fake_now_ns = 0;
  TraceContext ctx(FakeClockConfig());
  ctx.set_request_id(7);
  g_fake_now_ns = 1000;
  SpanRef root = ctx.OpenSpan(SpanKind::kRequest);
  g_fake_now_ns = 2000;
  SpanRef gen = ctx.OpenSpan(SpanKind::kCandidateGen);
  g_fake_now_ns = 3000;
  ctx.CloseSpan(gen);
  g_fake_now_ns = 3500;
  SpanRef exec = ctx.OpenSpan(SpanKind::kEvalExec);
  g_fake_now_ns = 4000;
  ctx.CloseSpan(exec);
  g_fake_now_ns = 5000;
  ctx.CloseSpan(root);

  // Kernel-bound spans (eval_exec, text_match) carry the dispatch level as
  // a trace-event arg; the level is whatever this process runs under.
  const std::string level = KernelLevelName(ActiveKernelLevel());
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"request\",\"cat\":\"qbe\",\"ph\":\"X\","
      "\"ts\":1.000,\"dur\":4.000,\"pid\":7,\"tid\":0},\n"
      "{\"name\":\"candidate_gen\",\"cat\":\"qbe\",\"ph\":\"X\","
      "\"ts\":2.000,\"dur\":1.000,\"pid\":7,\"tid\":0},\n"
      "{\"name\":\"eval_exec\",\"cat\":\"qbe\",\"ph\":\"X\","
      "\"ts\":3.500,\"dur\":0.500,\"pid\":7,\"tid\":0,"
      "\"args\":{\"kernel_level\":\"" + level + "\"}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(ChromeTraceJson(ctx.Stitch()), expected);
}

TEST(PrometheusTextTest, GoldenOutput) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total").Increment(3);
  registry.SetGauge("queue_depth", 2.5);
  Histogram& hist = registry.GetHistogram("lat", {0.001, 0.01});
  hist.Observe(0.0005);
  hist.Observe(0.5);  // overflow

  const std::string expected =
      "# TYPE qbe_requests_total counter\n"
      "qbe_requests_total 3\n"
      "# TYPE qbe_queue_depth gauge\n"
      "qbe_queue_depth 2.5\n"
      "# TYPE qbe_lat histogram\n"
      "qbe_lat_bucket{le=\"0.001\"} 1\n"
      "qbe_lat_bucket{le=\"0.01\"} 1\n"
      "qbe_lat_bucket{le=\"+Inf\"} 2\n"
      "qbe_lat_sum 0.5005\n"
      "qbe_lat_count 2\n";
  EXPECT_EQ(PrometheusText(registry), expected);
}

TEST(PrometheusTextTest, SanitizesMetricNames) {
  MetricsRegistry registry;
  registry.GetCounter("phase_seconds_verify:filter").Increment();
  std::string text = PrometheusText(registry);
  EXPECT_NE(text.find("qbe_phase_seconds_verify_filter 1"),
            std::string::npos);
  EXPECT_EQ(text.find(':'), std::string::npos);
}

TEST(SlowQueryJsonTest, GoldenOutput) {
  SlowQueryRecord record;
  record.request_id = 42;
  record.status = "ok";
  record.latency_seconds = 0.012345;
  record.queue_seconds = 0.001;
  record.et_rows = 3;
  record.et_cols = 2;
  record.candidates = 17;
  record.verifications = 5;
  record.queries = 1;
  record.kernel_level = "avx2";
  record.traced = true;
  record.phases = {{"candidate_gen", 0.001}, {"verify:filter", 0.0105}};

  const std::string expected =
      "{\"event\":\"slow_query\",\"request_id\":42,\"status\":\"ok\","
      "\"latency_ms\":12.345,\"queue_ms\":1.000,"
      "\"et_rows\":3,\"et_cols\":2,\"candidates\":17,"
      "\"verifications\":5,\"queries\":1,"
      "\"kernel_level\":\"avx2\",\"traced\":true,"
      "\"phases\":{\"candidate_gen\":1.000,\"verify:filter\":10.500}}";
  EXPECT_EQ(SlowQueryJson(record), expected);
}

TEST(SlowQueryJsonTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

/// Asserts that every eval-exec and eval-cache-lookup span of `trace` hangs
/// directly off its one FILTER span: verification runs on the thread that
/// opened that span, so nesting alone attributes each evaluation to it.
void ExpectEvalSpansNestUnderFilter(const Trace& trace) {
  int32_t filter = -1;
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    if (trace.spans[i].kind == SpanKind::kFilter) {
      filter = static_cast<int32_t>(i);
    }
  }
  ASSERT_GE(filter, 0);
  for (const TraceSpan& span : trace.spans) {
    if (span.kind != SpanKind::kEvalExec &&
        span.kind != SpanKind::kEvalCacheLookup) {
      continue;
    }
    EXPECT_EQ(span.parent, filter) << SpanKindName(span.kind);
  }
}

TEST(TraceDiscoveryTest, SampledRequestCoversAllPhases) {
  Database db = MakeRetailerDatabase();
  ExampleTable et = MakeFigure2ExampleTable();
  EvalCache cache;
  TraceContext trace;
  DiscoveryOptions options;
  options.cache = &cache;
  options.trace = &trace;
  DiscoveryResult result = DiscoverQueries(db, et, options);
  ASSERT_TRUE(result.ok());

  Trace stitched = trace.Stitch();
  ExpectEvalSpansNestUnderFilter(stitched);
  std::string why;
  EXPECT_TRUE(stitched.WellFormed(&why)) << why;
  // The acceptance criterion: candidate-gen, verify, text-match and cache
  // phases all present in one sampled request's tree.
  EXPECT_EQ(stitched.PhaseCount(SpanKind::kCandidateGen), 1u);
  EXPECT_EQ(stitched.PhaseCount(SpanKind::kFilter), 1u);
  EXPECT_GE(stitched.PhaseCount(SpanKind::kTextMatch), 1u);
  EXPECT_GE(stitched.PhaseCount(SpanKind::kEvalCacheLookup), 1u);
  EXPECT_GE(stitched.PhaseCount(SpanKind::kEvalExec), 1u);
  EXPECT_EQ(stitched.PhaseCount(SpanKind::kRank), 1u);
  // Counters agree with the result's own accounting.
  EXPECT_EQ(stitched.counter(TraceCounter::kCandidatesGenerated),
            static_cast<int64_t>(result.num_candidates));
  EXPECT_EQ(stitched.counter(TraceCounter::kQueriesVerified),
            result.counters.verifications);
  EXPECT_EQ(stitched.counter(TraceCounter::kValidQueries),
            static_cast<int64_t>(result.queries.size()));
  EXPECT_EQ(stitched.dropped_spans, 0);
}

// The same nesting holds over one view and over two shards, where each
// evaluation is a scatter-gather probe. Only the multi-view request counts
// shard probes.
TEST(TraceDiscoveryTest, ShardedRequestNestsEvalSpansUnderFilter) {
  Database db = MakeRetailerDatabase();
  for (int num_shards : {1, 2}) {
    PartitionOptions partition;
    partition.num_shards = num_shards;
    std::vector<Database> shards =
        SplitDatabase(db, ComputePartitionPlan(db, partition));
    std::vector<DbView> views(shards.begin(), shards.end());
    EvalCache cache;
    TraceContext trace;
    DiscoveryOptions options;
    options.cache = &cache;
    options.trace = &trace;
    DiscoveryResult result =
        DiscoverQueries(views, MakeFigure2ExampleTable(), options, 0);
    ASSERT_TRUE(result.ok()) << result.error;

    Trace stitched = trace.Stitch();
    std::string why;
    EXPECT_TRUE(stitched.WellFormed(&why)) << why;
    EXPECT_EQ(stitched.PhaseCount(SpanKind::kFilter), 1u);
    EXPECT_GE(stitched.PhaseCount(SpanKind::kEvalCacheLookup), 1u);
    EXPECT_GE(stitched.PhaseCount(SpanKind::kEvalExec), 1u);
    ExpectEvalSpansNestUnderFilter(stitched);
    if (num_shards == 1) {
      EXPECT_EQ(stitched.counter(TraceCounter::kShardProbes), 0);
    } else {
      EXPECT_GT(stitched.counter(TraceCounter::kShardProbes), 0);
    }
  }
}

TEST(TraceDiscoveryTest, TracingDoesNotChangeOutcomes) {
  // The deep off/sampled/full differential (cache key sets) lives in
  // trace_overhead_test.cc; this is the fast tier-1 smoke.
  Database db = MakeRetailerDatabase();
  ExampleTable et = MakeFigure2ExampleTable();
  DiscoveryResult plain = DiscoverQueries(db, et);

  TraceContext trace;
  DiscoveryOptions traced_options;
  traced_options.trace = &trace;
  DiscoveryResult traced = DiscoverQueries(db, et, traced_options);

  ASSERT_EQ(plain.queries.size(), traced.queries.size());
  for (size_t i = 0; i < plain.queries.size(); ++i) {
    EXPECT_EQ(plain.queries[i].sql, traced.queries[i].sql);
    EXPECT_EQ(plain.queries[i].score, traced.queries[i].score);
  }
  EXPECT_EQ(plain.counters.verifications, traced.counters.verifications);
  EXPECT_EQ(plain.num_candidates, traced.num_candidates);
}

std::string HttpGetOnce(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  std::string request = "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n"
                        "Connection: close\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, n);
  ::close(fd);
  return response;
}

/// Minimal HTTP GET against 127.0.0.1:port; retries transient connect
/// failures (parallel ctest can starve loopback accepts briefly).
std::string HttpGet(uint16_t port, const std::string& path) {
  std::string response;
  for (int attempt = 0; attempt < 5 && response.empty(); ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20 << attempt));
    }
    response = HttpGetOnce(port, path);
  }
  return response;
}

TEST(MetricsHttpServerTest, ServesHandlerBodyAndFourOhFours) {
  MetricsHttpServer server(0, [](const std::string& path,
                                 std::string* content_type) -> std::string {
    if (path == "/metrics") {
      *content_type = "text/plain";
      return "qbe_up 1\n";
    }
    return {};
  });
  if (!server.ok()) {
    GTEST_SKIP() << "cannot bind loopback socket: " << server.error();
  }
  std::string response = HttpGet(server.port(), "/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("qbe_up 1"), std::string::npos);
  std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  server.Stop();
}

TEST(ServiceTracingTest, SampledRequestsYieldTracesMetricsAndSlowLog) {
  std::mutex log_mu;
  std::vector<std::string> log_lines;
  ServiceOptions options;
  options.num_workers = 1;  // serial: deterministic request_id order
  options.trace_sample = 1.0;
  options.slow_query_ms = 0.0;  // log every request
  options.slow_query_sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(log_mu);
    log_lines.push_back(line);
  };
  DiscoveryService service(MakeRetailerDatabase(), options);
  for (int i = 0; i < 3; ++i) {
    ServiceResponse response = service.Discover(MakeFigure2ExampleTable());
    ASSERT_EQ(response.status, RequestStatus::kOk);
  }

  std::vector<Trace> traces = service.RecentTraces();
  ASSERT_EQ(traces.size(), 3u);
  for (const Trace& trace : traces) {
    std::string why;
    EXPECT_TRUE(trace.WellFormed(&why)) << why;
    EXPECT_EQ(trace.PhaseCount(SpanKind::kRequest), 1u);
    EXPECT_EQ(trace.PhaseCount(SpanKind::kCandidateGen), 1u);
  }
  EXPECT_EQ(traces[0].request_id, 0u);
  EXPECT_EQ(traces[2].request_id, 2u);
  EXPECT_EQ(service.metrics().GetCounter("requests_traced").Value(), 3);

  ASSERT_EQ(log_lines.size(), 3u);
  for (const std::string& line : log_lines) {
    EXPECT_EQ(line.find("{\"event\":\"slow_query\""), 0u) << line;
    EXPECT_NE(line.find("\"traced\":true"), std::string::npos);
    EXPECT_NE(line.find("\"kernel_level\":\""), std::string::npos);
    EXPECT_NE(line.find("\"phases\":{"), std::string::npos);
  }

  std::string prom = service.PrometheusMetrics();
  EXPECT_NE(prom.find("qbe_requests_traced 3"), std::string::npos);
  EXPECT_NE(prom.find("qbe_phase_seconds_candidate_gen_count"),
            std::string::npos);
  EXPECT_NE(prom.find("qbe_latency_seconds_bucket"), std::string::npos);

  std::string chrome = service.ChromeTraces();
  EXPECT_EQ(chrome.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(chrome.find("\"name\":\"candidate_gen\""), std::string::npos);
}

TEST(ServiceTracingTest, TraceRingKeepsOnlyTheNewest) {
  ServiceOptions options;
  options.num_workers = 1;
  options.trace_sample = 1.0;
  options.trace_keep = 2;
  DiscoveryService service(MakeRetailerDatabase(), options);
  ExampleTable et = ExampleTable::WithColumns(1);
  et.AddRow({"Mike"});
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(service.Discover(et).status, RequestStatus::kOk);
  }
  std::vector<Trace> traces = service.RecentTraces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].request_id, 3u);
  EXPECT_EQ(traces[1].request_id, 4u);
}

TEST(ServiceTracingTest, UnsampledServiceRecordsNothing) {
  DiscoveryService service(MakeRetailerDatabase(), ServiceOptions{});
  ASSERT_EQ(service.Discover(MakeFigure2ExampleTable()).status,
            RequestStatus::kOk);
  EXPECT_TRUE(service.RecentTraces().empty());
  EXPECT_EQ(service.metrics().GetCounter("requests_traced").Value(), 0);
}

}  // namespace
}  // namespace qbe
