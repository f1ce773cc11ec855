#ifndef QBE_UTIL_DEADLINE_H_
#define QBE_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace qbe {

/// Cooperative deadline shared between a request owner and the discovery
/// kernel. The owner arms a wall-clock deadline (SetTimeout) on the
/// admitting thread; the kernel polls Expired() on the worker between
/// CQ-row verifications (EvalEngine::Execute) and at phase boundaries, so
/// a runaway request stops within one existence-query evaluation.
/// Thread-safe; expiry is sticky.
class DeadlineToken {
 public:
  DeadlineToken() = default;

  /// Arms the deadline `timeout` from now. Non-positive timeouts expire
  /// immediately.
  void SetTimeout(std::chrono::nanoseconds timeout) {
    deadline_ns_.store(NowNs() + timeout.count(), std::memory_order_relaxed);
  }

  bool Expired() const {
    int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    return deadline != kNoDeadline && NowNs() >= deadline;
  }

 private:
  static constexpr int64_t kNoDeadline = INT64_MAX;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::atomic<int64_t> deadline_ns_{kNoDeadline};
};

}  // namespace qbe

#endif  // QBE_UTIL_DEADLINE_H_
