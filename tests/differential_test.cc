// Differential test suite for the verification algorithms (DESIGN.md §9).
//
// Over ≥ 200 seeded random database/ET instances it asserts:
//
//  1. FILTER (lazy and exact), VERIFYALL and SIMPLEPRUNE return identical
//     minimal-valid-query sets (the paper's §2.3 invariant), and
//  2. every algorithm's number of evaluated existence queries, and the
//     estimated cost of the queries it evaluated, match the golden
//     snapshots.
//
// Instances are drawn as 20 seeded scaled-retailer databases × 10 random
// ETs each = 200 (database, ET) pairs, sharded into gtest params so
// failures name the offending seed.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/candidate_gen.h"
#include "core/filter_verifier.h"
#include "core/simple_prune.h"
#include "core/verify_all.h"
#include "core/weave.h"
#include "datagen/et_gen.h"
#include "datagen/retailer.h"
#include "exec/executor.h"

namespace qbe {
namespace {

constexpr int kEtsPerSeed = 10;

struct Workbench {
  explicit Workbench(uint64_t seed)
      : db(MakeScaledRetailerDatabase(30, 30, 12, 12, 120, 120, 50, seed)),
        graph(db),
        exec(db, graph) {}

  Database db;
  SchemaGraph graph;
  Executor exec;
};

std::vector<ExampleTable> RandomEts(Workbench& wb, uint64_t seed) {
  EtSource::Options options;
  options.num_matrices = 4;
  options.min_text_cols = 3;
  options.min_matrix_rows = 6;
  EtSource source(wb.db, wb.graph, wb.exec, seed, options);
  EtParams params;
  params.m = 3;
  params.n = 3;
  params.s = 0.3;
  params.v = 1;
  return source.SampleMany(params, kEtsPerSeed, seed * 131 + 7);
}

/// Runs `algo` and returns (valid set, counters).
std::pair<std::vector<bool>, VerificationCounters> RunEngine(
    const Workbench& wb, const ExampleTable& et,
    const std::vector<CandidateQuery>& cands, CandidateVerifier& algo,
    uint64_t seed) {
  VerifyContext ctx{wb.db, wb.graph, wb.exec, et, cands, seed};
  VerificationCounters counters;
  std::vector<bool> valid = algo.Verify(ctx, &counters);
  return {std::move(valid), counters};
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Part 1: algorithm agreement — all verifiers compute the same minimal
// valid set on every instance.
TEST_P(DifferentialTest, AlgorithmsAgreeOnRandomInstances) {
  uint64_t seed = GetParam();
  Workbench wb(seed);
  int instances = 0;
  for (const ExampleTable& et : RandomEts(wb, seed + 1000)) {
    ++instances;
    std::vector<CandidateQuery> cands =
        GenerateCandidates(wb.db, wb.graph, et, {});
    if (cands.empty()) continue;

    VerifyAll verify_all(RowOrder::kDenseFirst);
    auto [reference, ref_verifs] =
        RunEngine(wb, et, cands, verify_all, seed);

    SimplePrune simple_prune(RowOrder::kDenseFirst);
    FilterVerifier filter_lazy(0.1, true);
    FilterVerifier filter_exact(0.1, false);
    CandidateVerifier* algos[] = {&simple_prune, &filter_lazy, &filter_exact};
    for (CandidateVerifier* algo : algos) {
      auto [valid, algo_counters] = RunEngine(wb, et, cands, *algo, seed);
      EXPECT_EQ(valid, reference)
          << algo->name() << " disagrees with VerifyAll (seed " << seed
          << ", instance " << instances << ")";
    }
  }
  EXPECT_EQ(instances, kEtsPerSeed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

// Part 2: verification-count regression harness. The serial per-algorithm
// verification counts over all 200 seeded instances are snapshotted into
// tests/golden/verify_counts.json (key "sNN.eNN.algo"), and the estimated
// cost (Σ join-tree sizes of the evaluated queries) into
// tests/golden/estimated_costs.json; any drift fails. Counts are the
// paper's cost currency (Table 4, Figure 9): a pruning or filter-scheduling
// regression shows up here even when the valid sets — which part 1 pins —
// still agree, and the cost catches a change to *which* filters FILTER
// picks even when their number stays equal. Regenerate intentionally with
//   QBE_UPDATE_GOLDEN=1 ctest -R differential_test

using CountMap = std::map<std::string, int64_t>;

struct GoldenMaps {
  CountMap verifications;
  CountMap estimated_cost;
};

std::string InstanceKey(uint64_t seed, int et, const char* algo) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "s%02llu.e%02d.%s",
                static_cast<unsigned long long>(seed), et, algo);
  return buf;
}

GoldenMaps CollectVerifyCounts() {
  GoldenMaps maps;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Workbench wb(seed);
    int e = 0;
    for (const ExampleTable& et : RandomEts(wb, seed + 1000)) {
      std::vector<CandidateQuery> cands =
          GenerateCandidates(wb.db, wb.graph, et, {});
      ++e;
      if (cands.empty()) continue;
      VerifyAll verify_all(RowOrder::kDenseFirst);
      SimplePrune simple_prune(RowOrder::kDenseFirst);
      FilterVerifier filter_lazy(0.1, true);
      FilterVerifier filter_exact(0.1, false);
      JoinTreeWeave weave;
      std::pair<const char*, CandidateVerifier*> algos[] = {
          {"verifyall", &verify_all},   {"simpleprune", &simple_prune},
          {"filter", &filter_lazy},     {"filterexact", &filter_exact},
          {"weave", &weave}};
      for (auto [name, algo] : algos) {
        auto [valid, counters] = RunEngine(wb, et, cands, *algo, seed);
        (void)valid;
        const std::string key = InstanceKey(seed, e - 1, name);
        maps.verifications[key] = counters.verifications;
        maps.estimated_cost[key] = counters.estimated_cost;
      }
    }
  }
  return maps;
}

std::string GoldenPath(const char* file) {
  return std::string(QBE_GOLDEN_DIR) + "/" + file;
}

void WriteGolden(const std::string& path, const CountMap& counts) {
  std::ofstream out(path);
  ASSERT_TRUE(out.is_open()) << "cannot write " << path;
  out << "{\n";
  size_t i = 0;
  for (const auto& [key, value] : counts) {
    out << "  \"" << key << "\": " << value
        << (++i == counts.size() ? "\n" : ",\n");
  }
  out << "}\n";
}

/// Parses the flat {"key": int, ...} golden file; false on read failure.
bool ReadGolden(const std::string& path, CountMap* counts) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) return false;
    std::string key = text.substr(pos + 1, end - pos - 1);
    size_t colon = text.find(':', end);
    if (colon == std::string::npos) return false;
    (*counts)[key] = std::strtoll(text.c_str() + colon + 1, nullptr, 10);
    pos = end + 1;
  }
  return !counts->empty();
}

/// Compares both directions with per-key messages: a bare map EXPECT_EQ
/// would drown the signal in one giant diff.
void ExpectMatchesGolden(const char* file, const char* what,
                         const CountMap& counts) {
  const std::string path = GoldenPath(file);
  if (std::getenv("QBE_UPDATE_GOLDEN") != nullptr) {
    WriteGolden(path, counts);
    GTEST_LOG_(INFO) << "wrote " << counts.size() << " values to " << path;
    return;
  }

  CountMap golden;
  ASSERT_TRUE(ReadGolden(path, &golden))
      << path << " missing or unreadable; regenerate with "
      << "QBE_UPDATE_GOLDEN=1";
  for (const auto& [key, value] : golden) {
    auto it = counts.find(key);
    if (it == counts.end()) {
      ADD_FAILURE() << "instance " << key
                    << " missing from this run (golden has " << value << ")";
    } else {
      EXPECT_EQ(it->second, value) << what << " drift on " << key;
    }
  }
  for (const auto& [key, value] : counts) {
    EXPECT_TRUE(golden.count(key))
        << "new instance " << key << " (" << what << " " << value
        << ") absent from golden; regenerate if intended";
  }
}

TEST(VerifyCountGoldenTest, CountsMatchGoldenSnapshot) {
  GoldenMaps maps = CollectVerifyCounts();
  ASSERT_FALSE(maps.verifications.empty());
  ExpectMatchesGolden("verify_counts.json", "verification count",
                      maps.verifications);
  ExpectMatchesGolden("estimated_costs.json", "estimated cost",
                      maps.estimated_cost);
}

}  // namespace
}  // namespace qbe
