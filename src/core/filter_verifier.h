#ifndef QBE_CORE_FILTER_VERIFIER_H_
#define QBE_CORE_FILTER_VERIFIER_H_

#include "core/filter_universe.h"
#include "core/verifier.h"

namespace qbe {

/// FILTER (§5): the paper's contribution. Builds the deduplicated filter
/// universe of all candidates, then runs the adaptive verification loop of
/// Algorithm 1: repeatedly evaluate the filter maximizing expected workload
/// per unit cost (Eq. 9), propagate success down the sub-filter order
/// (Lemma 4) and failure up it (Lemma 3), invalidate every candidate owning
/// a failed filter (Lemma 2), and validate a candidate once all its basic
/// filters are known successes — until every candidate is resolved.
///
/// The expected-workload model follows §5.3.1: a filter constraining nF of
/// the ET's n columns fails with probability p(F) = p̂·nF/n where p̂ is the
/// average failure prior; cost(F) is its join-tree size. Greedy selection
/// by E[W]/cost enjoys the adaptive-submodularity guarantee of Theorem 4.
class FilterVerifier : public CandidateVerifier {
 public:
  struct Options {
    /// p̂, the average failure probability constant of the model (§5.3.1
    /// leaves its value open). Empirically a small prior works best: most
    /// weakly-constrained filters succeed, so over-betting on failure
    /// wastes evaluations. The parameter sensitivity is charted by the
    /// ablation micro-bench.
    double failure_prior = 0.1;

    /// When set, p̂ is re-estimated online from observed filter outcomes
    /// (Bayes-smoothed running failure rate), clamped to [0.02, 0.9]. The
    /// model stays "a constant p" in structure; only the constant adapts
    /// to the workload. Extension beyond the paper; off by default.
    bool adaptive_prior = false;

    /// Accelerated (lazy) greedy selection: scores are adaptively
    /// diminishing (Lemma 6), so stale priority-queue entries are upper
    /// bounds and can be re-validated on pop instead of rescoring every
    /// filter each round. Identical valid sets and near-identical
    /// evaluation counts, but the selection overhead drops from
    /// O(|F|) per evaluation to amortized O(log |F|) — on heavy-tailed
    /// ETs with thousands of candidates the exact scan dominates wall
    /// time, so lazy is the default; the exact scan remains available for
    /// the ablation study.
    bool lazy_greedy = true;
  };

  FilterVerifier() = default;
  explicit FilterVerifier(Options options) : options_(options) {}

  std::vector<bool> Verify(const VerifyContext& ctx,
                           VerificationCounters* counters) override;

 private:
  Options options_;
};

}  // namespace qbe

#endif  // QBE_CORE_FILTER_VERIFIER_H_
