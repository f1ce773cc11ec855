#ifndef QBE_CORE_WEAVE_H_
#define QBE_CORE_WEAVE_H_

#include <cstddef>

#include "core/verifier.h"

namespace qbe {

/// WEAVE — the sample-driven schema-mapping comparator (Qian et al.,
/// SIGMOD 2012) evaluated in §6.3, in its memory-friendly *join-tree*
/// variant: column constraints are pushed down as in our approaches (the
/// paper's "fair" implementation), the candidate set is fixed, and
/// verification proceeds row-major — all candidates are verified for row 1,
/// the survivors for row 2, and so on. Unlike FILTER it never shares work
/// across candidates nor weighs cost against benefit, which is why Table 4
/// reports ~10× more verifications.
class JoinTreeWeave : public CandidateVerifier {
 public:
  std::string name() const override { return "Weave"; }

  std::vector<bool> Verify(const VerifyContext& ctx,
                           VerificationCounters* counters) override;
};

/// WEAVE in its original *tuple-tree* form: for every candidate and row the
/// matching joined tuple combinations (tuple trees) are materialized and
/// retained in memory while the candidate is still alive — the behaviour
/// whose footprint Figure 16 charts. `peak_memory_bytes` tracks the largest
/// simultaneous materialization. Materializes through the first view's
/// executor, so it verifies one unsharded view only.
class TupleTreeWeave : public CandidateVerifier {
 public:
  /// `per_query_row_cap` bounds the tuple trees materialized per
  /// (candidate, row) pair, mirroring how our reimplementation of [18]
  /// spilled to temporary tables once memory thrashed (§6.3).
  explicit TupleTreeWeave(size_t per_query_row_cap = 100000)
      : cap_(per_query_row_cap) {}

  std::string name() const override { return "Weave(tuple)"; }

  std::vector<bool> Verify(const VerifyContext& ctx,
                           VerificationCounters* counters) override;

 private:
  size_t cap_;
};

}  // namespace qbe

#endif  // QBE_CORE_WEAVE_H_
