#include "harness/experiment.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <cstdlib>
#include <string_view>

#include "core/filter_verifier.h"
#include "core/simple_prune.h"
#include "core/verify_all.h"
#include "core/weave.h"
#include "datagen/cust_like.h"
#include "datagen/imdb_like.h"
#include "datagen/retailer.h"
#include "harness/table_printer.h"
#include "util/check.h"

namespace qbe {

Bundle MakeBundle(DatasetKind kind, double scale, uint64_t seed) {
  Bundle bundle;
  switch (kind) {
    case DatasetKind::kRetailer:
      bundle.db = std::make_unique<Database>(MakeRetailerDatabase());
      break;
    case DatasetKind::kImdb: {
      ImdbConfig config;
      config.scale = scale;
      config.seed = seed;
      bundle.db = std::make_unique<Database>(MakeImdbLikeDatabase(config));
      break;
    }
    case DatasetKind::kCust: {
      CustConfig config;
      config.scale = scale;
      config.seed = seed;
      bundle.db = std::make_unique<Database>(MakeCustLikeDatabase(config));
      break;
    }
  }
  bundle.graph = std::make_unique<SchemaGraph>(*bundle.db);
  bundle.exec = std::make_unique<Executor>(*bundle.db, *bundle.graph);
  bundle.ets = std::make_unique<EtSource>(*bundle.db, *bundle.graph,
                                          *bundle.exec, seed + 1);
  return bundle;
}

std::string AlgoName(AlgoKind kind) {
  switch (kind) {
    case AlgoKind::kVerifyAll:
      return "VerifyAll";
    case AlgoKind::kSimplePrune:
      return "SimplePrune";
    case AlgoKind::kFilter:
      return "Filter";
    case AlgoKind::kFilterExact:
      return "Filter(exact)";
    case AlgoKind::kWeave:
      return "Weave";
    case AlgoKind::kWeaveTuple:
      return "Weave(tuple)";
  }
  return "?";
}

namespace {

/// `seed` shuffles the baselines' row order (§6 randomizes it).
std::unique_ptr<CandidateVerifier> MakeAlgo(AlgoKind kind, uint64_t seed) {
  switch (kind) {
    case AlgoKind::kVerifyAll:
      return std::make_unique<VerifyAll>(RowOrder::kRandom, seed);
    case AlgoKind::kSimplePrune:
      return std::make_unique<SimplePrune>(RowOrder::kRandom, seed);
    case AlgoKind::kFilter:
      return std::make_unique<FilterVerifier>();
    case AlgoKind::kFilterExact:
      return std::make_unique<FilterVerifier>(
          FilterVerifier::Options{.lazy_greedy = false});
    case AlgoKind::kWeave:
      return std::make_unique<JoinTreeWeave>();
    case AlgoKind::kWeaveTuple:
      return std::make_unique<TupleTreeWeave>();
  }
  return nullptr;
}

}  // namespace

ExperimentPoint RunPoint(const Bundle& bundle,
                         const std::vector<ExampleTable>& ets,
                         const std::vector<AlgoKind>& algos,
                         int max_join_length, uint64_t seed) {
  ExperimentPoint point;
  point.algos.resize(algos.size());
  for (size_t a = 0; a < algos.size(); ++a) {
    point.algos[a].name = AlgoName(algos[a]);
  }
  if (ets.empty()) return point;

  CandidateGenOptions gen_options;
  gen_options.max_join_tree_size = max_join_length;

  for (const ExampleTable& et : ets) {
    std::vector<CandidateQuery> candidates =
        GenerateCandidates(*bundle.db, *bundle.graph, et, gen_options);
    point.avg_candidates += candidates.size();

    std::vector<bool> reference;
    for (size_t a = 0; a < algos.size(); ++a) {
      // Fresh per-request state for every (ET, verifier) pair: memo on,
      // match cache off (the probe set's defaults).
      ShardExecSet probes(DbView(*bundle.db), *bundle.graph);
      VerifyContext ctx{*bundle.db, *bundle.graph, probes, et, candidates};
      std::unique_ptr<CandidateVerifier> algo = MakeAlgo(algos[a], seed);
      VerificationCounters counters;
      std::vector<bool> valid = algo->Verify(ctx, &counters);
      probes.AddCacheCounters(&counters);
      if (a == 0) {
        reference = valid;
        int num_valid = 0;
        for (bool v : valid) num_valid += v;
        point.avg_valid += num_valid;
      } else {
        // The paper's framing: every algorithm computes the same valid set.
        QBE_CHECK_MSG(valid == reference,
                      "verification algorithms disagree on the valid set");
      }
      AlgoAggregate& agg = point.algos[a];
      agg.avg_verifications += counters.verifications;
      agg.avg_cost += counters.estimated_cost;
      agg.avg_millis += counters.elapsed_seconds * 1e3;
      agg.avg_peak_bytes += static_cast<double>(counters.peak_memory_bytes);
      agg.memo_hits += static_cast<double>(counters.subtree_memo_hits);
      agg.memo_lookups += static_cast<double>(counters.subtree_memo_lookups);
      agg.max_verifications = std::max(
          agg.max_verifications, static_cast<double>(counters.verifications));
      agg.max_millis =
          std::max(agg.max_millis, counters.elapsed_seconds * 1e3);
      agg.per_case_verifications.push_back(counters.verifications);
      agg.per_case_millis.push_back(counters.elapsed_seconds * 1e3);
      agg.per_case_peak_bytes.push_back(
          static_cast<double>(counters.peak_memory_bytes));
    }
  }

  double n = static_cast<double>(ets.size());
  point.avg_candidates /= n;
  point.avg_valid /= n;
  for (AlgoAggregate& agg : point.algos) {
    agg.avg_verifications /= n;
    agg.avg_cost /= n;
    agg.avg_millis /= n;
    agg.avg_peak_bytes /= n;
  }
  return point;
}

void PrintSweep(const std::string& title, const std::string& param_name,
                const std::vector<std::string>& param_values,
                const std::vector<ExperimentPoint>& points) {
  QBE_CHECK(param_values.size() == points.size());
  std::printf("%s\n", title.c_str());

  std::vector<std::string> headers = {param_name, "#candidates", "#valid"};
  for (const AlgoAggregate& agg : points[0].algos) headers.push_back(agg.name);
  TablePrinter verifications(headers);
  for (size_t i = 0; i < points.size(); ++i) {
    std::vector<std::string> row = {param_values[i],
                                    FormatDouble(points[i].avg_candidates, 1),
                                    FormatDouble(points[i].avg_valid, 1)};
    for (const AlgoAggregate& agg : points[i].algos) {
      row.push_back(FormatDouble(agg.avg_verifications, 1));
    }
    verifications.AddRow(std::move(row));
  }
  std::printf("(a) #verifications\n");
  verifications.Print(std::cout);

  std::vector<std::string> time_headers = {param_name};
  for (const AlgoAggregate& agg : points[0].algos) {
    time_headers.push_back(agg.name);
  }
  TablePrinter times(time_headers);
  TablePrinter costs(time_headers);
  for (size_t i = 0; i < points.size(); ++i) {
    std::vector<std::string> trow = {param_values[i]};
    std::vector<std::string> crow = {param_values[i]};
    for (const AlgoAggregate& agg : points[i].algos) {
      trow.push_back(FormatDouble(agg.avg_millis, 2));
      crow.push_back(FormatDouble(agg.avg_cost, 1));
    }
    times.AddRow(std::move(trow));
    costs.AddRow(std::move(crow));
  }
  std::printf("(b) execution time (ms)\n");
  times.Print(std::cout);
  std::printf("(c) total estimated cost (sum of join tree sizes)\n");
  costs.Print(std::cout);

  TablePrinter memo(time_headers);
  for (size_t i = 0; i < points.size(); ++i) {
    std::vector<std::string> row = {param_values[i]};
    for (const AlgoAggregate& agg : points[i].algos) {
      row.push_back(FormatDouble(agg.MemoHitRate() * 100.0, 1) + "%");
    }
    memo.AddRow(std::move(row));
  }
  std::printf("(d) subtree-memo hit rate\n");
  memo.Print(std::cout);
  std::printf("\n");
}

namespace {

[[noreturn]] void BenchUsage(const char* prog, const std::string& why) {
  std::fprintf(stderr, "%s: %s\nusage: %s [--ets=N] [--scale=X] [--seed=N]\n",
               prog, why.c_str(), prog);
  std::exit(2);
}

/// Parses all of `text` as a T; false on any leftover or malformed input.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

BenchArgs ParseBenchArgs(int argc, char** argv, int default_ets,
                         double default_scale) {
  BenchArgs args;
  args.ets_per_point = default_ets;
  args.scale = default_scale;
  const char* prog = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : arg.substr(eq + 1);
    const auto bad_value = [&] {
      BenchUsage(prog, "bad value in '" + std::string(arg) + "'");
    };
    if (eq == std::string_view::npos) {
      BenchUsage(prog, "unknown flag '" + std::string(arg) + "'");
    } else if (flag == "--ets") {
      if (!ParseWhole(value, &args.ets_per_point) || args.ets_per_point <= 0) {
        bad_value();
      }
    } else if (flag == "--scale") {
      if (!ParseWhole(value, &args.scale) || !std::isfinite(args.scale) ||
          args.scale <= 0) {
        bad_value();
      }
    } else if (flag == "--seed") {
      if (!ParseWhole(value, &args.seed)) bad_value();
    } else {
      BenchUsage(prog, "unknown flag '" + std::string(arg) + "'");
    }
  }
  return args;
}

}  // namespace qbe
