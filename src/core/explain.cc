#include "core/explain.h"

#include <utility>

#include "core/candidate_gen.h"
#include "core/filter_universe.h"
#include "schema/schema_graph.h"

namespace qbe {

DiscoveryExplain ExplainDiscovery(const Database& db, const ExampleTable& et,
                                  const DiscoveryOptions& options) {
  DiscoveryExplain explain;

  // The actual discovery runs first: it validates the input, and an input
  // it refuses gets its error instead of the stages below, which assume a
  // well-formed example table. It shares nothing with the stages; their
  // statistics describe the same run.
  DiscoveryResult result = DiscoverQueries(db, et, options);
  if (!result.ok()) {
    explain.error = std::move(result.error);
    return explain;
  }
  explain.num_valid = result.queries.size();
  explain.counters = result.counters;
  explain.queries = std::move(result.queries);

  // Stage 1: candidate projection columns.
  std::vector<std::vector<ColumnRef>> candidate_columns =
      options.min_row_support >= 0
          ? RetrieveCandidateColumnsRelaxed(db, et, options.min_row_support)
          : RetrieveCandidateColumns(db, et);
  for (int c = 0; c < et.num_columns(); ++c) {
    DiscoveryExplain::EtColumnInfo info;
    info.name = et.column_name(c).empty()
                    ? std::string(1, static_cast<char>('A' + c))
                    : et.column_name(c);
    for (const ColumnRef& col : candidate_columns[c]) {
      info.candidate_columns.push_back(db.QualifiedColumnName(col));
    }
    explain.et_columns.push_back(std::move(info));
  }

  // Stage 2: candidate enumeration statistics.
  const SchemaGraph& graph = db.schema_graph();
  CandidateGenOptions gen_options;
  gen_options.max_join_tree_size = options.max_join_tree_size;
  gen_options.max_candidates = options.max_candidates;
  std::vector<CandidateQuery> candidates = EnumerateCandidateQueries(
      db, graph, et, candidate_columns, gen_options);
  explain.num_candidates = candidates.size();
  for (const CandidateQuery& q : candidates) {
    explain.candidates_by_tree_size[q.tree.NumVertices()] += 1;
  }

  // Stage 3: filter universe statistics (what FILTER would build).
  if (!candidates.empty()) {
    FilterUniverse universe = BuildFilterUniverse(graph, et, candidates);
    explain.num_filters = universe.filters.size();
    for (const Filter& f : universe.filters) {
      if (f.IsTriviallySuccessful()) explain.num_trivial_filters += 1;
    }
  }
  return explain;
}

std::string DiscoveryExplain::ToString() const {
  std::string out = "discovery explain\n";
  out += "  candidate projection columns (Eq. 3):\n";
  for (const EtColumnInfo& info : et_columns) {
    out += "    " + info.name + " -> ";
    if (info.candidate_columns.empty()) {
      out += "(none)";
    } else {
      for (size_t i = 0; i < info.candidate_columns.size(); ++i) {
        if (i > 0) out += ", ";
        out += info.candidate_columns[i];
      }
    }
    out += "\n";
  }
  // Appends, not "literal" + std::to_string(...): gcc 12 reports a false
  // -Wrestrict on const char* + std::string&& at -O2 and above.
  out += "  candidates: ";
  out += std::to_string(num_candidates);
  out += " (by tree size:";
  for (const auto& [size, count] : candidates_by_tree_size) {
    out += ' ';
    out += std::to_string(size);
    out += "->";
    out += std::to_string(count);
  }
  out += ")\n  filter universe: ";
  out += std::to_string(num_filters);
  out += " filters, ";
  out += std::to_string(num_trivial_filters);
  out += " trivially successful\n  verifications: ";
  out += std::to_string(counters.verifications);
  out += " (estimated cost ";
  out += std::to_string(counters.estimated_cost);
  out += ")\n  valid queries: ";
  out += std::to_string(num_valid);
  out += "\n";
  for (const DiscoveredQuery& q : queries) {
    out += "    " + q.sql + "\n";
  }
  return out;
}

}  // namespace qbe
