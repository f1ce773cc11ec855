#ifndef QBE_EXEC_EXECUTOR_H_
#define QBE_EXEC_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/match_cache.h"
#include "exec/predicate.h"
#include "ingest/db_view.h"
#include "schema/join_tree.h"
#include "schema/schema_graph.h"
#include "storage/database.h"

namespace qbe {

class TraceContext;

/// Join-tree executor: the stand-in for the paper's SQL Server backend.
/// Evaluates existence queries
///
///   SELECT TOP 1 * FROM V(J) WHERE E(J) AND ⋀ CONTAINS(col, phrase)
///
/// with one bottom-up semijoin pass over the join tree (exact for acyclic
/// queries, per Yannakakis), seeded from the FTS indexes, and full
/// materialization for ET-matrix construction and tuple-tree weaving.
class Executor {
 public:
  /// The reduced row set of one join-tree node during the bottom-up
  /// semijoin pass: either unrestricted (`full`) or an explicit sorted row
  /// list. Public because SubtreeMemo stores reduced subtree roots.
  struct NodeState {
    int rel = -1;
    bool full = true;                // no restriction yet
    std::vector<uint32_t> rows;      // sorted, meaningful iff !full
    bool Empty() const { return !full && rows.empty(); }
  };

  /// Identity of a predicate-free subtree hanging off one entry vertex: the
  /// reduction result depends only on this triple and the database.
  struct SubtreeKey {
    int root = -1;
    RelationSet verts;
    EdgeSet edges;

    friend bool operator==(const SubtreeKey& a, const SubtreeKey& b) {
      return a.root == b.root && a.verts == b.verts && a.edges == b.edges;
    }
  };

  struct SubtreeKeyHash {
    size_t operator()(const SubtreeKey& k) const {
      return (k.verts.Hash() * 1000003 + k.edges.Hash()) * 31 +
             static_cast<size_t>(k.root);
    }
  };

  /// Per-request memo of reduced predicate-free join subtrees. Candidate
  /// queries of one request are subtrees of one schema graph and overlap
  /// heavily on join structure while differing mostly in predicates, so the
  /// predicate-free branches of their existence queries repeat across
  /// candidates (and across ET rows): materialize each once per request
  /// instead of once per evaluation. Not thread-safe: a request runs on
  /// one thread, and its ShardExecSet owns the memo (DESIGN.md §9).
  class SubtreeMemo {
   public:
    /// The memoized reduced root state, or null. Counts a lookup (and a hit
    /// when found). The pointer stays valid across later inserts: the map
    /// is node-based.
    const NodeState* Lookup(const SubtreeKey& key) {
      ++lookups_;
      auto it = map_.find(key);
      if (it == map_.end()) return nullptr;
      ++hits_;
      return &it->second;
    }

    const NodeState* Insert(const SubtreeKey& key, NodeState state) {
      return &map_.emplace(key, std::move(state)).first->second;
    }

    int64_t hits() const { return hits_; }
    int64_t lookups() const { return lookups_; }
    size_t size() const { return map_.size(); }

   private:
    std::unordered_map<SubtreeKey, NodeState, SubtreeKeyHash> map_;
    int64_t hits_ = 0;
    int64_t lookups_ = 0;
  };

  Executor(const Database& db, const SchemaGraph& graph)
      : view_(db), graph_(graph) {}

  /// Version-aware executor: reads go through `view` (base + optional delta
  /// overlay), so a pinned ingestion epoch evaluates exactly like a cold
  /// load of the merged data. The view must outlive the executor.
  Executor(const DbView& view, const SchemaGraph& graph)
      : view_(view), graph_(graph) {}

  /// True iff the join of `tree` has at least one result row satisfying all
  /// `predicates` (which must reference text columns of tree relations).
  /// This is the engine behind every CQ-row and filter verification. A
  /// non-null `memo` shares reduced predicate-free subtrees across calls; a
  /// non-null `match_cache` shares per-(column, phrase) row sets across
  /// calls (both outcome-neutral). A non-null `trace` records text-match
  /// spans (obs/trace.h); observation-only.
  bool Exists(const JoinTree& tree,
              const std::vector<PhrasePredicate>& predicates,
              SubtreeMemo* memo = nullptr,
              MatchCache* match_cache = nullptr,
              TraceContext* trace = nullptr) const;

  /// Materializes up to `limit` result tuples of the join of `tree` under
  /// `predicates`, projected onto `projection` (text columns). Used to build
  /// the ET-generation matrices (§6.1).
  std::vector<std::vector<std::string>> Materialize(
      const JoinTree& tree, const std::vector<PhrasePredicate>& predicates,
      const std::vector<ColumnRef>& projection, size_t limit) const;

  /// Materializes up to `limit` *tuple trees*: complete row assignments, one
  /// row id per tree vertex. `vertex_order` receives the vertex ids in the
  /// order used by each assignment. Used by the tuple-tree WEAVE comparator
  /// whose memory footprint Figure 16 charts.
  std::vector<std::vector<uint32_t>> MaterializeAssignments(
      const JoinTree& tree, const std::vector<PhrasePredicate>& predicates,
      size_t limit, std::vector<int>* vertex_order) const;

 private:
  /// Applies this node's own predicates; returns false if unsatisfiable.
  /// Match row sets come from `match_cache` when provided.
  bool SeedNode(int vertex,
                const std::vector<const PhrasePredicate*>& predicates,
                NodeState* state, MatchCache* match_cache,
                TraceContext* trace) const;

  /// Reduces `parent` to the rows having at least one join partner in
  /// `child` via `edge` (a semijoin). Exactness relies on tree-shaped joins.
  void Semijoin(NodeState* parent, int edge, const NodeState& child) const;

  /// Bottom-up reduction of the subtree rooted at `vertex` (entered from
  /// `via_edge`, -1 at the root). Returns the reduced root state.
  /// Predicate-free child subtrees are served from `memo` when provided.
  NodeState Reduce(const JoinTree& tree, int vertex, int via_edge,
                   const std::vector<std::vector<const PhrasePredicate*>>&
                       preds_by_vertex,
                   bool* feasible, SubtreeMemo* memo,
                   MatchCache* match_cache, TraceContext* trace) const;

  DbView view_;
  const SchemaGraph& graph_;
};

}  // namespace qbe

#endif  // QBE_EXEC_EXECUTOR_H_
