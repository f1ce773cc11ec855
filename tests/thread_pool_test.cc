#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace qbe {
namespace {

/// Reusable latch: tasks block in Wait() until the test calls Release(),
/// letting tests pin workers deterministically.
class Gate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ThreadPoolTest, RunsEveryTask) {
  std::atomic<int> sum{0};
  {
    // Deep enough for all 100 tasks, so no submit can be refused.
    ThreadPool pool(4, 128);
    for (int i = 1; i <= 100; ++i) {
      ASSERT_TRUE(pool.TrySubmit([&sum, i] {
        sum.fetch_add(i, std::memory_order_relaxed);
      }));
    }
  }  // destructor drains
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, TrySubmitFastFailsWhenFull) {
  Gate gate;
  ThreadPool pool(1, 2);
  // Pin the single worker, then fill the 2-slot queue.
  ASSERT_TRUE(pool.TrySubmit([&gate] { gate.Wait(); }));
  // The pinned task may still be in the queue; poll until the worker has
  // dequeued it so exactly 2 slots are free.
  while (pool.QueueDepth() > 0) std::this_thread::yield();
  ASSERT_TRUE(pool.TrySubmit([] {}));
  ASSERT_TRUE(pool.TrySubmit([] {}));
  // Queue now holds 2 tasks: full.
  EXPECT_FALSE(pool.TrySubmit([] {}));
  gate.Release();
  pool.Shutdown();
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  Gate gate;
  std::atomic<int> ran{0};
  ThreadPool pool(1, 16);
  ASSERT_TRUE(pool.TrySubmit([&gate] { gate.Wait(); }));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&ran] { ran.fetch_add(1); }));
  }
  gate.Release();
  pool.Shutdown();  // must run all 10 queued tasks before joining
  EXPECT_EQ(ran.load(), 10);
  // After shutdown submission refuses.
  EXPECT_FALSE(pool.TrySubmit([] {}));
}

TEST(ThreadPoolTest, ManyConcurrentSubmitters) {
  std::atomic<int> ran{0};
  // Deep enough for all 400 tasks, so no submit can be refused.
  ThreadPool pool(4, 400);
  std::vector<std::thread> submitters;
  for (int t = 0; t < 8; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(pool.TrySubmit([&ran] { ran.fetch_add(1); }));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 400);
}

}  // namespace
}  // namespace qbe
