#ifndef QBE_UTIL_STOPWATCH_H_
#define QBE_UTIL_STOPWATCH_H_

#include <chrono>

namespace qbe {

/// Monotonic wall-clock stopwatch used by the experiment harness.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace qbe

#endif  // QBE_UTIL_STOPWATCH_H_
