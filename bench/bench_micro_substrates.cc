// Microbenchmarks (google-benchmark) for the substrates behind the query
// discovery system: tokenizer, FTS index build/probe, master column index,
// the semijoin executor, subtree enumeration, candidate generation,
// filter-universe construction and whole FILTER runs. These quantify the
// paper's claim that candidate generation is "a negligible fraction of the
// overall query processing time" relative to verification.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/candidate_gen.h"
#include "core/filter_universe.h"
#include "core/filter_verifier.h"
#include "datagen/cust_like.h"
#include "datagen/et_gen.h"
#include "datagen/imdb_like.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "exec/match_cache.h"
#include "kernels/kernels.h"
#include "schema/subtree_enum.h"
#include "text/tokenizer.h"

namespace qbe {
namespace {

const Database& ImdbDb() {
  static const Database& db = *new Database([] {
    ImdbConfig config;
    config.scale = 0.5;
    return MakeImdbLikeDatabase(config);
  }());
  return db;
}

const SchemaGraph& ImdbGraph() {
  static const SchemaGraph& graph = *new SchemaGraph(ImdbDb());
  return graph;
}

ExampleTable NameTitleEt() {
  ExampleTable et({"A", "B"});
  et.AddRow({"mike jones", "the silent"});
  et.AddRow({"mary smith", "the golden"});
  return et;
}

void BM_Tokenize(benchmark::State& state) {
  std::string text = "The Quick Brown Fox, Jumps Over the Lazy Dog 42!";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tokenize(text));
  }
}
BENCHMARK(BM_Tokenize);

void BM_InvertedIndexBuild(benchmark::State& state) {
  const Database& db = ImdbDb();
  int person = db.RelationIdByName("person");
  const TextColumnStore& cells = db.relation(person).TextColumn(1);
  for (auto _ : state) {
    InvertedIndex index;
    index.Build(cells);
    benchmark::DoNotOptimize(index.num_rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cells.size()));
}
BENCHMARK(BM_InvertedIndexBuild);

void BM_PhraseMatch(benchmark::State& state) {
  const Database& db = ImdbDb();
  int person = db.RelationIdByName("person");
  const InvertedIndex& index = db.TextIndex(ColumnRef{person, 1});
  std::vector<std::string> phrase = {"mike", "jones"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.MatchPhrase(phrase));
  }
}
BENCHMARK(BM_PhraseMatch);

void BM_PhraseMatchIds(benchmark::State& state) {
  // The executor hot path: phrase tokens resolved to dictionary ids once
  // per request, probes reuse one output buffer — no per-probe allocation.
  const Database& db = ImdbDb();
  int person = db.RelationIdByName("person");
  const InvertedIndex& index = db.TextIndex(ColumnRef{person, 1});
  std::vector<uint32_t> ids = db.token_dict().IdsOf({"mike", "jones"});
  std::vector<uint32_t> rows;
  for (auto _ : state) {
    index.MatchPhraseIdsInto(ids, &rows);
    benchmark::DoNotOptimize(rows.data());
  }
}
BENCHMARK(BM_PhraseMatchIds);

void BM_TokenRowCount(benchmark::State& state) {
  // O(1) precomputed distinct-row count, by id and through the string
  // compat wrapper (heterogeneous dictionary lookup, no string built).
  const Database& db = ImdbDb();
  int person = db.RelationIdByName("person");
  const InvertedIndex& index = db.TextIndex(ColumnRef{person, 1});
  uint32_t id = db.token_dict().Find("mike");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.TokenRowCountId(id));
    benchmark::DoNotOptimize(index.TokenRowCount("mike"));
  }
}
BENCHMARK(BM_TokenRowCount);

void BM_ColumnIndexLookup(benchmark::State& state) {
  const Database& db = ImdbDb();
  std::vector<std::string> phrase = {"mike"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.column_index().ColumnsContaining(phrase));
  }
}
BENCHMARK(BM_ColumnIndexLookup);

void BM_ExecutorExists(benchmark::State& state) {
  const Database& db = ImdbDb();
  const SchemaGraph& graph = ImdbGraph();
  Executor exec(db, graph);
  // person <- cast_info -> title with two predicates.
  int person = db.RelationIdByName("person");
  int cast_info = db.RelationIdByName("cast_info");
  int title = db.RelationIdByName("title");
  JoinTree tree = JoinTree::Single(cast_info);
  for (int e : graph.IncidentEdges(cast_info)) {
    int other = graph.OtherEnd(e, cast_info);
    if ((other == person && !tree.verts.Test(person)) ||
        (other == title && !tree.verts.Test(title))) {
      tree = ExtendTree(tree, graph, e);
    }
  }
  std::vector<PhrasePredicate> predicates = {
      {ColumnRef{person, 1}, {"mike"}, false},
      {ColumnRef{title, 1}, {"silent"}, false}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Exists(tree, predicates));
  }
}
BENCHMARK(BM_ExecutorExists);

void BM_ExecutorExistsCached(benchmark::State& state) {
  // Same probe as BM_ExecutorExists but with pre-resolved predicate ids and
  // the per-request match cache, as DiscoverQueries runs it: after the first
  // iteration every SeedNode probe is a shared-lock lookup.
  const Database& db = ImdbDb();
  const SchemaGraph& graph = ImdbGraph();
  Executor exec(db, graph);
  int person = db.RelationIdByName("person");
  int cast_info = db.RelationIdByName("cast_info");
  int title = db.RelationIdByName("title");
  JoinTree tree = JoinTree::Single(cast_info);
  for (int e : graph.IncidentEdges(cast_info)) {
    int other = graph.OtherEnd(e, cast_info);
    if ((other == person && !tree.verts.Test(person)) ||
        (other == title && !tree.verts.Test(title))) {
      tree = ExtendTree(tree, graph, e);
    }
  }
  std::vector<PhrasePredicate> predicates = {
      {ColumnRef{person, 1}, {"mike"}, false},
      {ColumnRef{title, 1}, {"silent"}, false}};
  for (PhrasePredicate& pred : predicates) {
    pred.ids = db.token_dict().IdsOf(pred.tokens);
  }
  MatchCache match_cache;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exec.Exists(tree, predicates, nullptr, &match_cache));
  }
}
BENCHMARK(BM_ExecutorExistsCached);

void BM_SubtreeEnumeration(benchmark::State& state) {
  const SchemaGraph& graph = ImdbGraph();
  int max_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateSubtrees(graph, max_size));
  }
}
BENCHMARK(BM_SubtreeEnumeration)->Arg(3)->Arg(4)->Arg(5);

void BM_CandidateGeneration(benchmark::State& state) {
  const Database& db = ImdbDb();
  const SchemaGraph& graph = ImdbGraph();
  ExampleTable et = NameTitleEt();
  CandidateGenOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCandidates(db, graph, et, options));
  }
}
BENCHMARK(BM_CandidateGeneration);

void BM_FilterUniverseBuild(benchmark::State& state) {
  const Database& db = ImdbDb();
  const SchemaGraph& graph = ImdbGraph();
  ExampleTable et = NameTitleEt();
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db, graph, et, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildFilterUniverse(graph, et, candidates));
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
}
BENCHMARK(BM_FilterUniverseBuild);

/// One ET from the heavy tail of CUST-like ETs (§6.1 sampling, scale 0.2):
/// ~7,300 candidates and ~34,000 filters, the shape that sets the CUST
/// workload's p99 under FILTER.
struct CustHeavyCase {
  CustHeavyCase()
      : db([] {
          CustConfig config;
          config.scale = 0.2;
          return MakeCustLikeDatabase(config);
        }()),
        graph(db),
        exec(db, graph),
        et([this] {
          EtSource::Options options;
          options.min_matrix_rows = 8;
          EtSource source(db, graph, exec, 3, options);
          return source.SampleMany(EtParams{}, 60, 17)[4];
        }()),
        candidates(GenerateCandidates(db, graph, et, {})) {}

  Database db;
  SchemaGraph graph;
  Executor exec;
  ExampleTable et;
  std::vector<CandidateQuery> candidates;
};

const CustHeavyCase& CustHeavy() {
  static const CustHeavyCase& c = *new CustHeavyCase();
  return c;
}

// FILTER's planning alone on the heavy CUST ET.
void BM_FilterUniverseBuildCustHeavy(benchmark::State& state) {
  const CustHeavyCase& c = CustHeavy();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildFilterUniverse(c.graph, c.et, c.candidates));
  }
  state.counters["candidates"] = static_cast<double>(c.candidates.size());
}
BENCHMARK(BM_FilterUniverseBuildCustHeavy)->Unit(benchmark::kMillisecond);

// The whole of FILTER — planning, greedy selection and the existence
// queries — on the small IMDB ET and on the heavy CUST ET. Subtracting the
// build arms above separates planning from the executor.
void BM_FilterVerifyImdb(benchmark::State& state) {
  const Database& db = ImdbDb();
  const SchemaGraph& graph = ImdbGraph();
  ExampleTable et = NameTitleEt();
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db, graph, et, {});
  FilterVerifier filter;
  for (auto _ : state) {
    ShardExecSet probes(DbView(db), graph);
    VerifyContext ctx{db, graph, probes, et, candidates, 42};
    VerificationCounters counters;
    benchmark::DoNotOptimize(filter.Verify(ctx, &counters));
    state.counters["verifications"] =
        static_cast<double>(counters.verifications);
  }
}
BENCHMARK(BM_FilterVerifyImdb);

void BM_FilterVerifyCustHeavy(benchmark::State& state) {
  const CustHeavyCase& c = CustHeavy();
  FilterVerifier filter;
  for (auto _ : state) {
    ShardExecSet probes(DbView(c.db), c.graph);
    VerifyContext ctx{c.db, c.graph, probes, c.et, c.candidates, 42};
    VerificationCounters counters;
    benchmark::DoNotOptimize(filter.Verify(ctx, &counters));
    state.counters["verifications"] =
        static_cast<double>(counters.verifications);
  }
}
BENCHMARK(BM_FilterVerifyCustHeavy)->Unit(benchmark::kMillisecond);

void BM_RetailerDiscoveryEndToEnd(benchmark::State& state) {
  const Database& db = *new Database(MakeRetailerDatabase());
  const SchemaGraph& graph = *new SchemaGraph(db);
  ExampleTable et = MakeFigure2ExampleTable();
  CandidateGenOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCandidates(db, graph, et, options));
  }
}
BENCHMARK(BM_RetailerDiscoveryEndToEnd);

// ---------------------------------------------------------------------------
// SIMD kernel layer A/B (DESIGN.md §14): each kernel registered once per
// dispatch level this CPU supports, named BM_Kernel*<level>, so one
// google-benchmark run carries the scalar-vs-SSE-vs-AVX2 comparison.
// Levels are forced in-process (the QBE_KERNEL equivalents); every
// benchmark restores the previous level on exit.

std::vector<uint32_t> SortedUnique32(uint64_t seed, size_t n,
                                     uint32_t universe) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint32_t> dist(0, universe);
  std::vector<uint32_t> v(n);
  for (auto& x : v) x = dist(rng);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

class ScopedLevel {
 public:
  explicit ScopedLevel(KernelLevel level) : prev_(ActiveKernelLevel()) {
    ForceKernelLevel(level);
  }
  ~ScopedLevel() { ForceKernelLevel(prev_); }

 private:
  KernelLevel prev_;
};

void BM_KernelIntersectDense(benchmark::State& state, KernelLevel level) {
  ScopedLevel scoped(level);
  // 4k x 4k, ~25% overlap: the dense CSR-posting / row-set shape. Raw
  // kernel into a preallocated buffer — wrapper overhead is identical
  // across levels and benched separately via BM_KernelIntersectWrapped.
  std::vector<uint32_t> a = SortedUnique32(1, 4096, 16384);
  std::vector<uint32_t> b = SortedUnique32(2, 4096, 16384);
  std::vector<uint32_t> out(std::min(a.size(), b.size()) + kIntersectPad32);
  const KernelOps& ops = ActiveKernelOps();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.intersect_u32(a.data(), a.size(), b.data(),
                                               b.size(), out.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}

void BM_KernelIntersectWrapped(benchmark::State& state, KernelLevel level) {
  ScopedLevel scoped(level);
  // Same shape through the product-facing wrapper (gallop check + resize).
  std::vector<uint32_t> a = SortedUnique32(1, 4096, 16384);
  std::vector<uint32_t> b = SortedUnique32(2, 4096, 16384);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    kernels::IntersectSortedInto(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}

void BM_KernelIntersectSkewed(benchmark::State& state, KernelLevel level) {
  ScopedLevel scoped(level);
  // 64 x 16k: past the 16x threshold, so this times the gallop path (same
  // at every level — the A/B shows the hybrid never regresses skew).
  std::vector<uint32_t> small = SortedUnique32(3, 64, 1u << 20);
  std::vector<uint32_t> large = SortedUnique32(4, 16384, 1u << 20);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    kernels::IntersectSortedInto(small, large, &out);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_KernelPhraseShift(benchmark::State& state, KernelLevel level) {
  ScopedLevel scoped(level);
  // Dense shifted-span merge, packed row<<32|pos as in the CSR index.
  std::vector<uint64_t> cand, span;
  for (uint32_t v : SortedUnique32(5, 2048, 1u << 16)) {
    cand.push_back((uint64_t{v >> 4} << 32) | (v & 15));
  }
  for (uint32_t v : SortedUnique32(6, 4096, 1u << 16)) {
    span.push_back((uint64_t{v >> 4} << 32) | (v & 15));
  }
  std::sort(cand.begin(), cand.end());
  std::sort(span.begin(), span.end());
  std::vector<uint64_t> acc, scratch;
  for (auto _ : state) {
    acc = cand;
    kernels::IntersectShiftedInPlace(&acc, span, 1, &scratch);
    benchmark::DoNotOptimize(acc.data());
  }
}

void BM_KernelBitmapSemijoin(benchmark::State& state, KernelLevel level) {
  ScopedLevel scoped(level);
  // The executor's semijoin bitmap cycle: clear, batch-set, AND, emit.
  std::vector<uint32_t> rows = SortedUnique32(7, 8192, 65535);
  std::vector<uint32_t> mask_rows = SortedUnique32(8, 8192, 65535);
  std::vector<uint64_t> bits, mask;
  kernels::BitmapClear(&mask, 65536);
  kernels::BitmapSetBatch(&mask, mask_rows);
  std::vector<uint32_t> emitted;
  for (auto _ : state) {
    kernels::BitmapClear(&bits, 65536);
    kernels::BitmapSetBatch(&bits, rows);
    kernels::BitmapAnd(&bits, mask);
    kernels::BitmapEmitInto(bits, &emitted);
    benchmark::DoNotOptimize(emitted.data());
  }
  state.SetItemsProcessed(state.iterations() * 65536);
}

/// Registers the per-level kernel benchmarks for every supported level.
/// Static-init registration, same as the BENCHMARK macros above.
int RegisterKernelBenches() {
  for (KernelLevel level :
       {KernelLevel::kScalar, KernelLevel::kSse, KernelLevel::kAvx2}) {
    if (!KernelLevelSupported(level)) continue;
    const std::string suffix = std::string("<") + KernelLevelName(level) + ">";
    benchmark::RegisterBenchmark(
        ("BM_KernelIntersectDense" + suffix).c_str(),
        BM_KernelIntersectDense, level);
    benchmark::RegisterBenchmark(
        ("BM_KernelIntersectWrapped" + suffix).c_str(),
        BM_KernelIntersectWrapped, level);
    benchmark::RegisterBenchmark(
        ("BM_KernelIntersectSkewed" + suffix).c_str(),
        BM_KernelIntersectSkewed, level);
    benchmark::RegisterBenchmark(("BM_KernelPhraseShift" + suffix).c_str(),
                                 BM_KernelPhraseShift, level);
    benchmark::RegisterBenchmark(("BM_KernelBitmapSemijoin" + suffix).c_str(),
                                 BM_KernelBitmapSemijoin, level);
  }
  return 0;
}

const int kKernelBenchesRegistered = RegisterKernelBenches();

}  // namespace
}  // namespace qbe

BENCHMARK_MAIN();
