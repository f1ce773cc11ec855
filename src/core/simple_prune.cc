#include "core/simple_prune.h"

#include <algorithm>
#include <numeric>

#include "util/stopwatch.h"

namespace qbe {

std::vector<bool> SimplePrune::Verify(const VerifyContext& ctx,
                                      VerificationCounters* counters) {
  Stopwatch timer;
  std::vector<int> row_order = MakeRowOrder(ctx.et, row_order_, ctx.seed);

  // Ascending join-tree size maximizes later subtree-of-supertree hits.
  std::vector<int> order(ctx.candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return ctx.candidates[a].tree.NumVertices() <
           ctx.candidates[b].tree.NumVertices();
  });

  struct FailedVerification {
    int query;
    int row;
  };
  std::vector<FailedVerification> failed;

  // Lemma 1 check against every recorded failure: the cost of these
  // subtree tests is negligible next to executing verifications (§4.2).
  auto implied_failed = [&](int q) {
    for (const FailedVerification& f : failed) {
      if (QueryFailureImplies(ctx.candidates[f.query], ctx.candidates[q],
                              ctx.et, f.row)) {
        return true;
      }
    }
    return false;
  };

  std::vector<bool> valid(ctx.candidates.size(), false);
  EvalEngine engine(ctx, counters);
  for (int q : order) {
    if (implied_failed(q)) {
      counters->pruned_without_verification += 1;
      continue;
    }
    bool ok = true;
    for (int row : row_order) {
      if (!engine.EvaluateCandidateRow(q, row)) {
        failed.push_back(FailedVerification{q, row});
        ok = false;
        break;
      }
    }
    valid[q] = ok;
  }

  counters->elapsed_seconds += timer.ElapsedSeconds();
  return valid;
}

}  // namespace qbe
