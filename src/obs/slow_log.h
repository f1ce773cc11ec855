#ifndef QBE_OBS_SLOW_LOG_H_
#define QBE_OBS_SLOW_LOG_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace qbe {

/// One slow request, as logged by DiscoveryService when a request's
/// end-to-end latency crosses ServiceOptions::slow_query_ms. Phases are
/// filled from the request's trace when it was sampled; an unsampled slow
/// request still logs the scalar fields.
struct SlowQueryRecord {
  uint64_t request_id = 0;
  std::string status;  // "ok", "timed_out", ...
  double latency_seconds = 0.0;
  double queue_seconds = 0.0;
  int et_rows = 0;
  int et_cols = 0;
  int64_t candidates = 0;
  int64_t verifications = 0;
  int64_t queries = 0;  // discovered queries returned
  bool traced = false;
  /// Per-phase wall seconds (name → seconds), e.g. {"candidate_gen", 0.01}.
  std::vector<std::pair<std::string, double>> phases;
};

/// Escapes `s` for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(const std::string& s);

/// One JSON object, single line, no trailing newline; keys in a fixed
/// order so the output is machine-parseable and golden-testable.
std::string SlowQueryJson(const SlowQueryRecord& record);

}  // namespace qbe

#endif  // QBE_OBS_SLOW_LOG_H_
