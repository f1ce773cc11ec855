#ifndef QBE_UTIL_OWNER_THREAD_H_
#define QBE_UTIL_OWNER_THREAD_H_

#include <thread>

#include "util/check.h"

namespace qbe {

/// Always-on single-owner check for per-request state that takes no lock
/// (DESIGN.md §9): the first thread to call Check pins the object, and a
/// later call from any other thread fails a QBE_CHECK with `message`, which
/// names the object. One thread-id compare per call.
class OwnerThread {
 public:
  void Check(const char* message) const {
    const std::thread::id self = std::this_thread::get_id();
    if (owner_ == std::thread::id()) owner_ = self;
    QBE_CHECK_MSG(owner_ == self, message);
  }

 private:
  mutable std::thread::id owner_;
};

}  // namespace qbe

#endif  // QBE_UTIL_OWNER_THREAD_H_
