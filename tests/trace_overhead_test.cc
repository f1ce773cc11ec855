// Tracing observation-only differential (DESIGN.md §13): discovery output,
// verification counts, and eval-cache key sets must be bit-identical with
// tracing off, sampled (50%), and at 100%. Runs under both sanitizer CI
// legs (labels: slow trace).
//
// Two comparison surfaces:
//  - cache-free runs compare verification counts exactly, so any drift
//    here is tracing perturbing control flow;
//  - cached runs additionally compare the *set* of eval-cache keys ever
//    looked up: every evaluation performs its lookup first and cached
//    outcomes equal computed ones, so the key set is tracing-independent.

#include <gtest/gtest.h>

#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "datagen/et_gen.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "obs/trace.h"

namespace qbe {
namespace {

constexpr int kNumEts = 6;

/// EvalCacheBase that records every key ever looked up.
class RecordingEvalCache : public EvalCacheBase {
 public:
  std::optional<bool> Find(const EvalCacheKey& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    keys_.insert(key);
    return outcomes_.Find(key);
  }

  void Insert(const EvalCacheKey& key, bool outcome) override {
    std::lock_guard<std::mutex> lock(mu_);
    outcomes_.Insert(key, outcome);
  }

  void AddTraffic(int64_t hits, int64_t lookups) override {
    std::lock_guard<std::mutex> lock(mu_);
    hits_ += hits;
    lookups_ += lookups;
  }

  int64_t hits() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  int64_t lookups() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return lookups_;
  }
  size_t size() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return outcomes_.size();
  }

  std::set<EvalCacheKey> keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    return keys_;
  }

 private:
  mutable std::mutex mu_;
  OutcomeTable outcomes_;
  std::set<EvalCacheKey> keys_;
  int64_t hits_ = 0;
  int64_t lookups_ = 0;
};

enum class TraceMode { kOff, kSampled, kFull };

const char* ModeName(TraceMode mode) {
  switch (mode) {
    case TraceMode::kOff: return "off";
    case TraceMode::kSampled: return "sampled";
    case TraceMode::kFull: return "full";
  }
  return "?";
}

struct Workload {
  Workload()
      : db(MakeScaledRetailerDatabase(30, 30, 12, 12, 120, 120, 50, 7)),
        graph(db),
        exec(db, graph) {
    EtSource::Options options;
    options.num_matrices = 4;
    options.min_text_cols = 3;
    options.min_matrix_rows = 6;
    EtSource source(db, graph, exec, 7, options);
    EtParams params;
    params.m = 3;
    params.n = 3;
    params.s = 0.3;
    params.v = 1;
    ets = source.SampleMany(params, kNumEts, 7 * 131 + 7);
  }

  Database db;
  SchemaGraph graph;
  Executor exec;
  std::vector<ExampleTable> ets;
};

Workload& SharedWorkload() {
  static Workload* workload = new Workload();
  return *workload;
}

/// Everything that must be invariant under tracing for one run.
struct RunOutcome {
  std::vector<std::vector<std::string>> sql;     // per ET, ranked order
  std::vector<std::vector<double>> scores;       // per ET, ranked order
  std::vector<size_t> num_candidates;            // per ET
  std::vector<int64_t> verifications;            // per ET
  std::set<EvalCacheKey> cache_keys;             // whole run (cached only)
};

RunOutcome RunWorkload(TraceMode mode, bool with_cache) {
  Workload& wl = SharedWorkload();
  RecordingEvalCache cache;
  TraceSampler sampler{0.5, 2026};
  RunOutcome outcome;
  for (size_t i = 0; i < wl.ets.size(); ++i) {
    bool traced = mode == TraceMode::kFull ||
                  (mode == TraceMode::kSampled && sampler.Sample(i));
    TraceContext trace;
    DiscoveryOptions options;
    if (with_cache) options.cache = &cache;
    if (traced) options.trace = &trace;
    DiscoveryResult result = DiscoverQueries(wl.db, wl.ets[i], options);
    EXPECT_TRUE(result.ok()) << result.error;

    outcome.sql.emplace_back();
    outcome.scores.emplace_back();
    for (const DiscoveredQuery& q : result.queries) {
      outcome.sql.back().push_back(q.sql);
      outcome.scores.back().push_back(q.score);
    }
    outcome.num_candidates.push_back(result.num_candidates);
    outcome.verifications.push_back(result.counters.verifications);

    if (traced) {
      Trace stitched = trace.Stitch();
      std::string why;
      EXPECT_TRUE(stitched.WellFormed(&why))
          << why << " (et " << i << ")";
      EXPECT_EQ(stitched.counter(TraceCounter::kValidQueries),
                static_cast<int64_t>(result.queries.size()));
    }
  }
  outcome.cache_keys = cache.keys();
  return outcome;
}

void ExpectSameResults(const RunOutcome& a, const RunOutcome& b,
                       TraceMode mode) {
  EXPECT_EQ(a.sql, b.sql)
      << "discovered queries drift with tracing " << ModeName(mode);
  EXPECT_EQ(a.scores, b.scores)
      << "ranking scores drift with tracing " << ModeName(mode);
  EXPECT_EQ(a.num_candidates, b.num_candidates);
  EXPECT_EQ(a.verifications, b.verifications)
      << "verification counts drift with tracing " << ModeName(mode);
}

// Cache-free: results AND exact verification counts are identical across
// tracing modes.
TEST(TraceOverheadTest, CacheFreeRunsAreBitIdenticalAcrossTracingModes) {
  RunOutcome off = RunWorkload(TraceMode::kOff, false);
  for (TraceMode mode : {TraceMode::kSampled, TraceMode::kFull}) {
    ExpectSameResults(off, RunWorkload(mode, false), mode);
  }
}

// Cached: results, counts and the set of eval-cache keys looked up are
// identical across tracing modes.
TEST(TraceOverheadTest, CachedRunsLookUpIdenticalKeySets) {
  RunOutcome off = RunWorkload(TraceMode::kOff, true);
  EXPECT_FALSE(off.cache_keys.empty());
  for (TraceMode mode : {TraceMode::kSampled, TraceMode::kFull}) {
    RunOutcome on = RunWorkload(mode, true);
    ExpectSameResults(off, on, mode);
    EXPECT_EQ(off.cache_keys, on.cache_keys)
        << "eval-cache key set drifts with tracing " << ModeName(mode);
  }
}

}  // namespace
}  // namespace qbe
