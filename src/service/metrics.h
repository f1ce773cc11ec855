#ifndef QBE_SERVICE_METRICS_H_
#define QBE_SERVICE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace qbe {

/// Monotonic counter. Increment is a relaxed atomic add — safe from any
/// thread, no ordering guarantees between metrics.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram: cumulative-style bucket counts over a sorted
/// list of upper bounds plus an overflow bucket, and sum/count for the
/// mean. Observe is lock-free (one relaxed add per field), so it can sit
/// on the service's request path.
class Histogram {
 public:
  /// `upper_bounds` must be sorted ascending and non-empty; an observation
  /// lands in the first bucket whose bound is >= the value, or overflow.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  int64_t TotalCount() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;

  /// Smallest bucket upper bound covering at least fraction `q` of the
  /// observations (bucket-resolution quantile). Overflow reports the last
  /// bound; 0 observations report 0.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; the final element is the overflow bucket.
  std::vector<int64_t> BucketCounts() const;

  /// "count=12 mean=0.034 p50<=0.05 p99<=0.5" (seconds or whatever unit
  /// the caller observes in).
  std::string ToString() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// `count` bounds starting at `start`, each `factor` times the previous —
/// the usual latency-histogram shape.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count);

/// Point-in-time copy of a registry's contents, for exporters (the
/// Prometheus text formatter in obs/prom.h) and tests. Values are read
/// relaxed — consistent enough for monitoring, never torn.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    std::vector<double> bounds;
    std::vector<int64_t> buckets;  // bounds.size() + 1 (overflow last)
    int64_t count = 0;
    double sum = 0.0;
  };

  std::vector<std::pair<std::string, int64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramData> histograms;
};

/// Registry of named counters and histograms. Get* creates the metric on
/// first use and returns a reference that stays valid for the registry's
/// lifetime, so callers resolve each metric once and update it lock-free;
/// only metric creation and Dump take the registry mutex. Gauges are
/// point-in-time doubles set at dump/snapshot time.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);

  /// First caller fixes the bucket layout; later callers get the existing
  /// histogram regardless of the bounds they pass.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds);

  void SetGauge(const std::string& name, double value);

  MetricsSnapshot Snapshot() const;

  /// One metric per line, sorted by name:
  ///   counter  requests_admitted 128
  ///   gauge    eval_cache_hit_rate 0.82
  ///   histogram latency_seconds count=128 mean=0.004 p50<=0.005 p99<=0.1
  std::string Dump() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, double> gauges_;
};

/// A named counter a hot path updates many times: the name is fixed up
/// front and looked up in the registry once, on first use; every later
/// update is lock-free. Registering on first use rather than at
/// construction keeps a metric out of dumps until something happens to it,
/// exactly as a direct GetCounter call at that point would.
class CounterHandle {
 public:
  CounterHandle(MetricsRegistry& registry, std::string name)
      : registry_(registry), name_(std::move(name)) {}

  void Increment(int64_t delta = 1) { Get().Increment(delta); }
  Counter& Get();

 private:
  MetricsRegistry& registry_;
  const std::string name_;
  std::atomic<Counter*> counter_{nullptr};
};

/// CounterHandle's histogram twin; the bucket bounds are built once, with
/// the handle.
class HistogramHandle {
 public:
  HistogramHandle(MetricsRegistry& registry, std::string name,
                  std::vector<double> upper_bounds)
      : registry_(registry),
        name_(std::move(name)),
        bounds_(std::move(upper_bounds)) {}

  void Observe(double value) { Get().Observe(value); }
  Histogram& Get();

 private:
  MetricsRegistry& registry_;
  const std::string name_;
  const std::vector<double> bounds_;
  std::atomic<Histogram*> histogram_{nullptr};
};

}  // namespace qbe

#endif  // QBE_SERVICE_METRICS_H_
