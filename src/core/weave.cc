#include "core/weave.h"

#include "util/stopwatch.h"

namespace qbe {

std::vector<bool> JoinTreeWeave::Verify(const VerifyContext& ctx,
                                        VerificationCounters* counters) {
  Stopwatch timer;
  EvalEngine engine(ctx, counters);
  std::vector<bool> alive(ctx.candidates.size(), true);
  // Row-major: weave each row's constraints through the surviving set.
  for (int row = 0; row < ctx.et.num_rows(); ++row) {
    for (size_t q = 0; q < ctx.candidates.size(); ++q) {
      if (!alive[q]) continue;
      if (!engine.EvaluateCandidateRow(static_cast<int>(q), row)) {
        alive[q] = false;
      }
    }
  }
  counters->elapsed_seconds += timer.ElapsedSeconds();
  return alive;
}

std::vector<bool> TupleTreeWeave::Verify(const VerifyContext& ctx,
                                         VerificationCounters* counters) {
  Stopwatch timer;
  std::vector<bool> alive(ctx.candidates.size(), true);
  // Bytes of tuple trees currently held per candidate; an assignment costs
  // one row id per join-tree vertex.
  std::vector<size_t> held_bytes(ctx.candidates.size(), 0);
  size_t current_bytes = 0;

  for (int row = 0; row < ctx.et.num_rows(); ++row) {
    for (size_t q = 0; q < ctx.candidates.size(); ++q) {
      if (!alive[q]) continue;
      const CandidateQuery& query = ctx.candidates[q];
      counters->verifications += 1;
      counters->estimated_cost += query.tree.NumVertices();
      std::vector<int> order;
      std::vector<std::vector<uint32_t>> trees =
          ctx.probes.executor(0).MaterializeAssignments(
              query.tree, RowPredicates(query, ctx.et, row), cap_, &order);
      if (trees.empty()) {
        // Candidate dies: release everything retained for it.
        alive[q] = false;
        current_bytes -= held_bytes[q];
        held_bytes[q] = 0;
        continue;
      }
      size_t bytes = trees.size() * order.size() * sizeof(uint32_t);
      held_bytes[q] += bytes;
      current_bytes += bytes;
      if (current_bytes > counters->peak_memory_bytes) {
        counters->peak_memory_bytes = current_bytes;
      }
    }
  }
  counters->elapsed_seconds += timer.ElapsedSeconds();
  return alive;
}

}  // namespace qbe
