#ifndef QBE_CORE_SIMPLE_PRUNE_H_
#define QBE_CORE_SIMPLE_PRUNE_H_

#include "core/verifier.h"

namespace qbe {

/// SIMPLEPRUNE (§4.2): VERIFYALL plus candidate-level failure-dependency
/// pruning (Lemma 1). Candidates are processed in ascending join-tree size
/// — small trees are likelier to be subtrees of later ones — and every
/// failed (candidate, row) verification is recorded; a new candidate is
/// pruned without any verification when a recorded failure implies its own.
class SimplePrune : public CandidateVerifier {
 public:
  /// `seed` drives RowOrder::kRandom's shuffle and nothing else.
  explicit SimplePrune(RowOrder row_order = RowOrder::kDenseFirst,
                       uint64_t seed = 42)
      : row_order_(row_order), seed_(seed) {}


  std::vector<bool> Verify(const VerifyContext& ctx,
                           VerificationCounters* counters) override;

 private:
  RowOrder row_order_;
  uint64_t seed_;
};

}  // namespace qbe

#endif  // QBE_CORE_SIMPLE_PRUNE_H_
