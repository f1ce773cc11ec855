#include "harness/experiment.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/table_printer.h"

namespace qbe {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter printer({"algo", "#verifications"});
  printer.AddRow({"VerifyAll", "120"});
  printer.AddRow({"Filter", "24"});
  std::ostringstream out;
  printer.Print(out);
  std::string text = out.str();
  EXPECT_NE(text.find("| algo      |"), std::string::npos);
  EXPECT_NE(text.find("| Filter    |"), std::string::npos);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KB");
  EXPECT_EQ(FormatBytes(3.5 * 1024 * 1024), "3.50 MB");
  EXPECT_EQ(FormatBytes(2.0 * 1024 * 1024 * 1024), "2.00 GB");
}

TEST(BenchArgsTest, Defaults) {
  char prog[] = "bench";
  char* argv[] = {prog};
  BenchArgs args = ParseBenchArgs(1, argv, 50, 1.0);
  EXPECT_EQ(args.ets_per_point, 50);
  EXPECT_DOUBLE_EQ(args.scale, 1.0);
  EXPECT_EQ(args.seed, 7u);
}

TEST(BenchArgsTest, Overrides) {
  char prog[] = "bench";
  char ets[] = "--ets=10";
  char scale[] = "--scale=0.25";
  char seed[] = "--seed=99";
  char* argv[] = {prog, ets, scale, seed};
  BenchArgs args = ParseBenchArgs(4, argv, 50, 1.0);
  EXPECT_EQ(args.ets_per_point, 10);
  EXPECT_DOUBLE_EQ(args.scale, 0.25);
  EXPECT_EQ(args.seed, 99u);
}

TEST(BenchArgsTest, UnknownFlagsAndMalformedNumbersExitWithUsage) {
  const char* bad[] = {"--bogus-flag", "--ets=abc", "--ets=0", "--ets=5x",
                       "--scale=0",    "--scale=-1", "--scale=nan",
                       "--seed=-3",    "--seed=",    "--ets",  "-ets=3",
                       "--kernel-ab=ab.json", "--json=out.json"};
  for (const char* flag : bad) {
    char prog[] = "bench";
    std::string arg = flag;
    char* argv[] = {prog, arg.data()};
    EXPECT_EXIT(ParseBenchArgs(2, argv, 50, 1.0),
                ::testing::ExitedWithCode(2), "usage: bench ")
        << flag;
  }
}

TEST(ExperimentTest, AlgoNamesStable) {
  EXPECT_EQ(AlgoName(AlgoKind::kVerifyAll), "VerifyAll");
  EXPECT_EQ(AlgoName(AlgoKind::kSimplePrune), "SimplePrune");
  EXPECT_EQ(AlgoName(AlgoKind::kFilter), "Filter");
  EXPECT_EQ(AlgoName(AlgoKind::kWeave), "Weave");
}

TEST(ExperimentTest, RunPointOnImdbSample) {
  Bundle bundle = MakeBundle(DatasetKind::kImdb, 0.1, 7);
  ASSERT_GT(bundle.ets->num_matrices(), 0);
  EtParams params;
  std::vector<ExampleTable> ets = bundle.ets->SampleMany(params, 3, 5);
  ExperimentPoint point =
      RunPoint(bundle, ets,
               {AlgoKind::kVerifyAll, AlgoKind::kSimplePrune,
                AlgoKind::kFilter},
               /*max_join_length=*/4, /*seed=*/5);
  ASSERT_EQ(point.algos.size(), 3u);
  EXPECT_GT(point.avg_candidates, 0.0);
  for (const AlgoAggregate& agg : point.algos) {
    EXPECT_GT(agg.avg_verifications, 0.0);
    EXPECT_GT(agg.avg_cost, 0.0);
    EXPECT_EQ(agg.per_case_verifications.size(), ets.size());
  }
  // Valid queries are a subset of candidates (usually a small one).
  EXPECT_LE(point.avg_valid, point.avg_candidates);
}

TEST(ExperimentTest, RetailerBundleWorks) {
  Bundle bundle = MakeBundle(DatasetKind::kRetailer, 1.0, 3);
  EXPECT_EQ(bundle.db->num_relations(), 7);
}

}  // namespace
}  // namespace qbe
