#include "core/execute_all.h"

#include "text/tokenizer.h"
#include "util/stopwatch.h"

namespace qbe {

std::vector<bool> ExecuteAll::Verify(const VerifyContext& ctx,
                                     VerificationCounters* counters) {
  Stopwatch timer;
  const Executor& exec = ctx.probes.executor(0);
  std::vector<bool> valid(ctx.candidates.size(), false);
  for (size_t q = 0; q < ctx.candidates.size(); ++q) {
    const CandidateQuery& query = ctx.candidates[q];
    counters->verifications += 1;

    // Execute the whole project-join query (no predicates pushed).
    std::vector<std::vector<std::string>> output = exec.Materialize(
        query.tree, {}, query.projection, cap_ + 1);
    if (output.size() > cap_) {
      // Output too large to hold: fall back to per-row TOP-1 probes so the
      // result stays exact (still charged as expensive work below).
      counters->estimated_cost +=
          static_cast<int64_t>(output.size()) * query.tree.NumVertices();
      bool ok = true;
      for (int row = 0; row < ctx.et.num_rows() && ok; ++row) {
        ok = exec.Exists(query.tree, RowPredicates(query, ctx.et, row));
      }
      valid[q] = ok;
      continue;
    }
    counters->estimated_cost +=
        static_cast<int64_t>(output.size()) * query.tree.NumVertices();

    // Tokenize the output once, then containment-check every ET row.
    std::vector<std::vector<std::vector<std::string>>> output_tokens;
    output_tokens.reserve(output.size());
    for (const auto& tuple : output) {
      std::vector<std::vector<std::string>> cols;
      cols.reserve(tuple.size());
      for (const std::string& cell : tuple) cols.push_back(Tokenize(cell));
      output_tokens.push_back(std::move(cols));
    }
    bool all_rows = true;
    for (int row = 0; row < ctx.et.num_rows() && all_rows; ++row) {
      bool found = false;
      for (const auto& tuple : output_tokens) {
        bool matches = true;
        for (int c = 0; c < ctx.et.num_columns() && matches; ++c) {
          const EtCell& cell = ctx.et.cell(row, c);
          if (cell.IsEmpty()) continue;
          matches = cell.exact
                        ? tuple[c] == ctx.et.CellTokens(row, c)
                        : IsTokenSubsequence(ctx.et.CellTokens(row, c),
                                             tuple[c]);
        }
        if (matches) {
          found = true;
          break;
        }
      }
      all_rows = found;
    }
    valid[q] = all_rows;
  }
  counters->elapsed_seconds += timer.ElapsedSeconds();
  return valid;
}

}  // namespace qbe
