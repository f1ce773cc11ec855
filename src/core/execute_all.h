#ifndef QBE_CORE_EXECUTE_ALL_H_
#define QBE_CORE_EXECUTE_ALL_H_

#include <cstddef>

#include "core/verifier.h"

namespace qbe {

/// EXECUTEALL — the naive strategy §4.1 opens with and rejects: "execute
/// [the candidate] and check whether its output contains all the rows in
/// the ET. This is typically very expensive, hence we do not follow this
/// approach." Implemented as a comparator so the claim is measurable: one
/// full materialization per candidate, then an in-memory containment check
/// of every ET row against the projected output.
///
/// Counters: one verification per candidate; estimated cost charges the
/// join-tree size once per materialized output tuple (executing the whole
/// join rather than a TOP-1 probe), which is what makes this approach lose
/// even though its verification *count* is the smallest possible.
///
/// Materializes through the first view's executor, so it verifies one
/// unsharded view only.
class ExecuteAll : public CandidateVerifier {
 public:
  /// `output_cap` bounds the materialized output per candidate as a safety
  /// valve; verification falls back to per-row existence checks for
  /// candidates whose output exceeds it (keeping results exact).
  explicit ExecuteAll(size_t output_cap = 2000000) : cap_(output_cap) {}

  std::string name() const override { return "ExecuteAll"; }

  std::vector<bool> Verify(const VerifyContext& ctx,
                           VerificationCounters* counters) override;

 private:
  size_t cap_;
};

}  // namespace qbe

#endif  // QBE_CORE_EXECUTE_ALL_H_
