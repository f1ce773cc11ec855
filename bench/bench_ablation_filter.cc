// Ablation study for the design choices DESIGN.md calls out:
//   * FILTER's failure prior p̂ (the unspecified constant of §5.3.1),
//   * exact vs lazy-greedy selection (accelerated argmax),
//   * the adaptive (online-estimated) prior extension,
//   * baseline row orderings (random vs dense-first, §4.1),
//   * the shared join-subtree memo (DESIGN.md §9) — its hit rate is
//     printed per variant so perf regressions show up in bench output.
// All variants return the same valid sets; only cost differs.

#include <cstdio>
#include <iostream>
#include <memory>

#include "core/candidate_gen.h"
#include "core/execute_all.h"
#include "core/filter_verifier.h"
#include "core/simple_prune.h"
#include "core/verify_all.h"
#include "exec/stats.h"
#include "harness/experiment.h"
#include "harness/table_printer.h"

namespace qbe {
namespace {

struct Variant {
  std::string name;
  std::unique_ptr<CandidateVerifier> algo;
  bool subtree_memo = true;
};

void Run(const BenchArgs& args) {
  Bundle bundle = MakeBundle(DatasetKind::kImdb, args.scale, args.seed);
  Statistics stats(*bundle.db);
  EtParams params;  // Table 3 defaults
  std::vector<ExampleTable> ets =
      bundle.ets->SampleMany(params, args.ets_per_point, args.seed);

  std::vector<Variant> variants;
  variants.push_back({"VerifyAll(random)",
                      std::make_unique<VerifyAll>(RowOrder::kRandom)});
  variants.push_back({"VerifyAll(dense-first)",
                      std::make_unique<VerifyAll>(RowOrder::kDenseFirst)});
  variants.push_back({"SimplePrune(random)",
                      std::make_unique<SimplePrune>(RowOrder::kRandom)});
  variants.push_back({"SimplePrune(dense-first)",
                      std::make_unique<SimplePrune>(RowOrder::kDenseFirst)});
  for (double prior : {0.0, 0.05, 0.1, 0.2, 0.5}) {
    variants.push_back({"Filter(p=" + FormatDouble(prior, 2) + ")",
                        std::make_unique<FilterVerifier>(prior, false)});
  }
  variants.push_back(
      {"Filter(lazy greedy)", std::make_unique<FilterVerifier>(0.1, true)});
  {
    FilterVerifier::Options options;
    options.adaptive_prior = true;
    variants.push_back({"Filter(adaptive prior)",
                        std::make_unique<FilterVerifier>(options)});
  }
  {
    FilterVerifier::Options options;
    options.cost_model = FilterCostModel::kEstimated;
    options.stats = &stats;
    variants.push_back({"Filter(estimated cost)",
                        std::make_unique<FilterVerifier>(options)});
  }
  variants.push_back(
      {"Filter(exact greedy)", std::make_unique<FilterVerifier>(0.1, false)});
  variants.push_back({"ExecuteAll", std::make_unique<ExecuteAll>()});
  // The subtree memo switched off, to isolate its contribution. These reuse
  // the default-configured algorithms, so rows are directly comparable to
  // the entries above.
  variants.push_back({"VerifyAll(no memo)",
                      std::make_unique<VerifyAll>(RowOrder::kDenseFirst),
                      /*subtree_memo=*/false});
  variants.push_back({"Filter(no memo)", std::make_unique<FilterVerifier>(),
                      /*subtree_memo=*/false});

  CandidateGenOptions gen_options;
  std::vector<VerificationCounters> totals(variants.size());
  for (const ExampleTable& et : ets) {
    std::vector<CandidateQuery> candidates =
        GenerateCandidates(*bundle.db, *bundle.graph, et, gen_options);
    std::vector<bool> reference;
    for (size_t v = 0; v < variants.size(); ++v) {
      VerifyContext ctx{*bundle.db, *bundle.graph, *bundle.exec,
                        et,         candidates,     args.seed};
      ctx.subtree_memo = variants[v].subtree_memo;
      VerificationCounters counters;
      std::vector<bool> valid = variants[v].algo->Verify(ctx, &counters);
      if (v == 0) {
        reference = valid;
      } else {
        QBE_CHECK_MSG(valid == reference, "ablation variants disagree");
      }
      totals[v].Add(counters);
    }
  }

  double n = static_cast<double>(ets.size());
  std::printf("Ablation: verification variants over %zu default ETs "
              "(IMDB, scale %.2f)\n",
              ets.size(), args.scale);
  TablePrinter table({"variant", "avg #verifications", "avg cost",
                      "avg time(ms)", "memo hit%"});
  for (size_t v = 0; v < variants.size(); ++v) {
    table.AddRow({variants[v].name,
                  FormatDouble(totals[v].verifications / n, 1),
                  FormatDouble(totals[v].estimated_cost / n, 1),
                  FormatDouble(totals[v].elapsed_seconds * 1e3 / n, 2),
                  FormatDouble(totals[v].SubtreeMemoHitRate() * 100.0, 1)});
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace qbe

int main(int argc, char** argv) {
  qbe::BenchArgs args = qbe::ParseBenchArgs(argc, argv, /*default_ets=*/50,
                                            /*default_scale=*/1.0);
  qbe::Run(args);
  return 0;
}
