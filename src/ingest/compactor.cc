#include "ingest/compactor.h"

#include <utility>

#include "util/check.h"

namespace qbe {

Compactor::Compactor(LiveDatabase* live, Options options)
    : live_(live), options_(std::move(options)) {
  QBE_CHECK_MSG(options_.ops_threshold > 0,
                "compaction threshold must be positive");
  thread_ = std::thread([this] { Run(); });
}

Compactor::~Compactor() { Stop(); }

void Compactor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

void Compactor::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, options_.poll_interval, [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    if (live_->delta_ops() >= options_.ops_threshold) MaybeCompact();
    lock.lock();
  }
}

void Compactor::MaybeCompact() {
  CompactionStats stats;
  std::string error;
  if (live_->Compact(options_.snapshot_path, &error, &stats)) {
    if (stats.epoch != 0 && options_.on_compaction) options_.on_compaction(stats);
  } else if (options_.on_error) {
    options_.on_error(error);
  }
}

}  // namespace qbe
