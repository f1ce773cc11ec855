#include "harness/experiment.h"

#include <cstdio>
#include <iostream>
#include <cstdlib>
#include <cstring>

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

std::unique_ptr<CandidateVerifier> MakeAlgo(AlgoKind kind) {
  switch (kind) {
    case AlgoKind::kVerifyAll:
      return std::make_unique<VerifyAll>(RowOrder::kRandom);
    case AlgoKind::kSimplePrune:
      return std::make_unique<SimplePrune>(RowOrder::kRandom);
    case AlgoKind::kFilter:
      return std::make_unique<FilterVerifier>();
    case AlgoKind::kFilterExact:
      return std::make_unique<FilterVerifier>(0.1, false);
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
      VerifyContext ctx{*bundle.db, *bundle.graph, probes,
                        et,         candidates,    seed};
      std::unique_ptr<CandidateVerifier> algo = MakeAlgo(algos[a]);
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

/// Minimal JSON string escape (quotes, backslashes, control characters);
/// bench titles are ASCII so this covers everything we emit.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void WriteSweepJson(const std::string& path, const std::string& title,
                    const std::string& param_name,
                    const std::vector<std::string>& param_values,
                    const std::vector<ExperimentPoint>& points) {
  QBE_CHECK(param_values.size() == points.size());
  std::FILE* f = std::fopen(path.c_str(), "w");
  QBE_CHECK_MSG(f != nullptr, "cannot open JSON output path");
  std::fprintf(f, "{\n  \"title\": \"%s\",\n  \"param\": \"%s\",\n",
               JsonEscape(title).c_str(), JsonEscape(param_name).c_str());
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const ExperimentPoint& point = points[i];
    std::fprintf(f,
                 "    {\"%s\": \"%s\", \"avg_candidates\": %.6g, "
                 "\"avg_valid\": %.6g, \"algos\": [\n",
                 JsonEscape(param_name).c_str(),
                 JsonEscape(param_values[i]).c_str(), point.avg_candidates,
                 point.avg_valid);
    for (size_t a = 0; a < point.algos.size(); ++a) {
      const AlgoAggregate& agg = point.algos[a];
      std::fprintf(f,
                   "      {\"name\": \"%s\", \"avg_verifications\": %.6g, "
                   "\"avg_millis\": %.6g, \"avg_cost\": %.6g, "
                   "\"max_verifications\": %.6g, \"max_millis\": %.6g, "
                   "\"avg_peak_bytes\": %.6g, \"memo_hit_rate\": %.6g}%s\n",
                   JsonEscape(agg.name).c_str(), agg.avg_verifications,
                   agg.avg_millis, agg.avg_cost, agg.max_verifications,
                   agg.max_millis, agg.avg_peak_bytes, agg.MemoHitRate(),
                   a + 1 < point.algos.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

BenchArgs ParseBenchArgs(int argc, char** argv, int default_ets,
                         double default_scale) {
  BenchArgs args;
  args.ets_per_point = default_ets;
  args.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--ets=", 6) == 0) {
      args.ets_per_point = std::atoi(arg + 6);
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      args.scale = std::atof(arg + 8);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      args.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      args.json_path = arg + 7;
    } else if (std::strncmp(arg, "--kernel-ab=", 12) == 0) {
      args.kernel_ab_path = arg + 12;
    }
  }
  QBE_CHECK(args.ets_per_point > 0);
  QBE_CHECK(args.scale > 0);
  return args;
}

}  // namespace qbe
