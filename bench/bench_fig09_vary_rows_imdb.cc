// Reproduces Figure 9: varying the number of ET rows (m = 2..6) on IMDB —
// (a) number of verifications and (b) execution time for VERIFYALL,
// SIMPLEPRUNE and FILTER. Expected shape: FILTER needs the fewest
// verifications and is robust to m; VERIFYALL degrades for small m (more
// candidates); SIMPLEPRUNE is U-shaped. Panel (d) charts the subtree-memo
// hit rate.

#include "harness/experiment.h"

int main(int argc, char** argv) {
  qbe::BenchArgs args = qbe::ParseBenchArgs(argc, argv, /*default_ets=*/50,
                                            /*default_scale=*/1.0);
  qbe::Bundle bundle =
      qbe::MakeBundle(qbe::DatasetKind::kImdb, args.scale, args.seed);
  std::vector<qbe::AlgoKind> algos = {qbe::AlgoKind::kVerifyAll,
                                      qbe::AlgoKind::kSimplePrune,
                                      qbe::AlgoKind::kFilter};
  std::vector<std::string> labels;
  std::vector<qbe::ExperimentPoint> points;
  for (int m = 2; m <= 6; ++m) {
    qbe::EtParams params;
    params.m = m;
    std::vector<qbe::ExampleTable> ets =
        bundle.ets->SampleMany(params, args.ets_per_point, args.seed + m);
    points.push_back(qbe::RunPoint(bundle, ets, algos, 4, args.seed));
    labels.push_back(std::to_string(m));
  }
  qbe::PrintSweep("Figure 9: vary the number of rows (IMDB)", "m", labels,
                  points);
  return 0;
}
