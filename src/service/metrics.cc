#include "service/metrics.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"

namespace qbe {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  QBE_CHECK(!bounds_.empty());
  QBE_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::Observe(double value) {
  size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

double Histogram::Mean() const {
  int64_t n = TotalCount();
  return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
}

double Histogram::Quantile(double q) const {
  int64_t n = TotalCount();
  if (n == 0) return 0.0;
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > rank) {
      return i < bounds_.size() ? bounds_[i] : bounds_.back();
    }
  }
  return bounds_.back();
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> counts(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::string Histogram::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "count=%lld mean=%.6g p50<=%.6g p99<=%.6g",
                static_cast<long long>(TotalCount()), Mean(), Quantile(0.5),
                Quantile(0.99));
  return buf;
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count) {
  QBE_CHECK(start > 0.0 && factor > 1.0 && count > 0);
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *slot;
}

Counter& CounterHandle::Get() {
  Counter* counter = counter_.load(std::memory_order_acquire);
  if (counter == nullptr) {
    // Racing first uses resolve to the same registry entry.
    counter = &registry_.GetCounter(name_);
    counter_.store(counter, std::memory_order_release);
  }
  return *counter;
}

Histogram& HistogramHandle::Get() {
  Histogram* histogram = histogram_.load(std::memory_order_acquire);
  if (histogram == nullptr) {
    histogram = &registry_.GetHistogram(name_, bounds_);
    histogram_.store(histogram, std::memory_order_release);
  }
  return *histogram;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  for (const auto& [name, value] : gauges_) {
    snapshot.gauges.emplace_back(name, value);
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.name = name;
    data.bounds = histogram->bounds();
    data.buckets = histogram->BucketCounts();
    data.count = histogram->TotalCount();
    data.sum = histogram->Sum();
    snapshot.histograms.push_back(std::move(data));
  }
  return snapshot;
}

std::string MetricsRegistry::Dump() const {
  std::lock_guard<std::mutex> lock(mu_);
  // The three maps are iterated separately but each is name-sorted; merge
  // into one sorted listing for a stable, greppable dump.
  std::vector<std::pair<std::string, std::string>> lines;
  for (const auto& [name, counter] : counters_) {
    lines.emplace_back(name, "counter   " + name + " " +
                                 std::to_string(counter->Value()));
  }
  for (const auto& [name, value] : gauges_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    lines.emplace_back(name, "gauge     " + name + " " + buf);
  }
  for (const auto& [name, histogram] : histograms_) {
    lines.emplace_back(name,
                       "histogram " + name + " " + histogram->ToString());
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& [name, line] : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace qbe
