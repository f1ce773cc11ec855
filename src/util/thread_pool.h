#ifndef QBE_UTIL_THREAD_POOL_H_
#define QBE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"

namespace qbe {

/// Fixed-size worker pool with a bounded FIFO work queue — the execution
/// substrate of DiscoveryService. The bounded queue is the admission
/// surface: TrySubmit rejects immediately when the queue is full (fast-fail
/// admission control), and Shutdown stops accepting work, runs everything
/// already queued (graceful drain), then joins the workers.
class ThreadPool {
 public:
  ThreadPool(int num_threads, size_t max_queue_depth)
      : max_queue_depth_(max_queue_depth) {
    QBE_CHECK(num_threads > 0);
    QBE_CHECK(max_queue_depth > 0);
    workers_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() { Shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`, or returns false immediately if the queue is full or
  /// the pool is shutting down.
  bool TrySubmit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_ || queue_.size() >= max_queue_depth_) return false;
      queue_.push_back(std::move(task));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Stops accepting tasks, drains every task already queued, and joins the
  /// workers. Idempotent; called by the destructor.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    not_empty_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  size_t QueueDepth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        not_empty_.wait(lock,
                        [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and fully drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  const size_t max_queue_depth_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace qbe

#endif  // QBE_UTIL_THREAD_POOL_H_
