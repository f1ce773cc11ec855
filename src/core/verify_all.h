#ifndef QBE_CORE_VERIFY_ALL_H_
#define QBE_CORE_VERIFY_ALL_H_

#include "core/verifier.h"

namespace qbe {

/// VERIFYALL (§4.1): verifies every candidate for every ET row with one
/// CQ-row SQL query each, eliminating a candidate at its first failing row.
/// Candidate order is irrelevant to the verification count; row order is
/// not — dense rows first tends to fail candidates earlier.
class VerifyAll : public CandidateVerifier {
 public:
  /// `seed` drives RowOrder::kRandom's shuffle and nothing else.
  explicit VerifyAll(RowOrder row_order = RowOrder::kDenseFirst,
                     uint64_t seed = 42)
      : row_order_(row_order), seed_(seed) {}


  std::vector<bool> Verify(const VerifyContext& ctx,
                           VerificationCounters* counters) override;

 private:
  RowOrder row_order_;
  uint64_t seed_;
};

}  // namespace qbe

#endif  // QBE_CORE_VERIFY_ALL_H_
