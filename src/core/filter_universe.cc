#include "core/filter_universe.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "schema/join_tree_catalog.h"
#include "util/check.h"

namespace qbe {
namespace {

uint64_t Mix64(uint64_t x) {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash term of φ'(c) = `col`. A φ restriction hashes to the XOR of the
/// terms of its defined cells, so restricting it to a sub-mask costs one
/// XOR per remaining cell.
uint64_t CellHash(int c, const ColumnRef& col) {
  return Mix64((static_cast<uint64_t>(c) << 56) ^
               (static_cast<uint64_t>(col.rel + 1) << 28) ^
               static_cast<uint64_t>(col.col + 1));
}

/// Open-addressing map from 64-bit keys to non-negative ids (linear
/// probing, load ≤ 1/2).
class IdMap {
 public:
  /// The id stored under `key`, or -1.
  int Find(uint64_t key) const {
    if (ids_.empty()) return -1;
    for (size_t i = Mix64(key) & mask_;; i = (i + 1) & mask_) {
      if (ids_[i] < 0) return -1;
      if (keys_[i] == key) return ids_[i];
    }
  }

  /// The id stored under `key`; when absent, stores `id` and returns it.
  int FindOrInsert(uint64_t key, int id) {
    if (2 * (size_ + 1) > ids_.size()) Grow();
    size_t i = Mix64(key) & mask_;
    for (; ids_[i] >= 0; i = (i + 1) & mask_) {
      if (keys_[i] == key) return ids_[i];
    }
    keys_[i] = key;
    ids_[i] = id;
    ++size_;
    return id;
  }

 private:
  void Grow() {
    std::vector<uint64_t> keys = std::move(keys_);
    std::vector<int> ids = std::move(ids_);
    const size_t capacity = std::max<size_t>(64, 2 * ids.size());
    keys_.assign(capacity, 0);
    ids_.assign(capacity, -1);
    mask_ = capacity - 1;
    for (size_t j = 0; j < ids.size(); ++j) {
      if (ids[j] < 0) continue;
      size_t i = Mix64(keys[j]) & mask_;
      while (ids_[i] >= 0) i = (i + 1) & mask_;
      keys_[i] = keys[j];
      ids_[i] = ids[j];
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<int> ids_;  // -1 = empty slot
  size_t size_ = 0;
  size_t mask_ = 0;
};

/// Dense ids 0, 1, 2, ... indexed by a 64-bit hash of their key. Distinct
/// keys may share a hash, so lookups walk the ids filed under it and the
/// caller confirms each with an exact comparison.
class HashedIds {
 public:
  int First(uint64_t hash) const { return heads_.Find(hash); }
  int Next(int id) const { return next_[id]; }

  /// Files the next id, size(), under `hash`.
  void Add(uint64_t hash) {
    const int id = size();
    const int head = heads_.FindOrInsert(hash, id);
    if (head == id) {
      next_.push_back(-1);
    } else {
      next_.push_back(next_[head]);
      next_[head] = id;
    }
  }

  int size() const { return static_cast<int>(next_.size()); }

 private:
  IdMap heads_;            // hash → first id filed under it
  std::vector<int> next_;  // id → next id with the same hash, or -1
};

/// The converse of a relation given as lists: list j of the result holds,
/// in ascending order, every source i < n with j ∈ targets_of(i).
template <typename TargetsOf>
IdLists Invert(size_t n, int num_targets, TargetsOf targets_of) {
  IdLists out;
  out.begin.assign(num_targets + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    for (int j : targets_of(i)) ++out.begin[j + 1];
  }
  for (int j = 0; j < num_targets; ++j) out.begin[j + 1] += out.begin[j];
  out.ids.resize(out.begin.back());
  std::vector<int> next(out.begin.begin(), out.begin.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    for (int j : targets_of(i)) out.ids[next[j]++] = static_cast<int>(i);
  }
  return out;
}

/// Builds one universe. Filters and classes are found by key — a hash of
/// (subtree, row, φ restriction) confirmed by an exact comparison against
/// flat per-key arrays — so no Filter is built, hashed or copied to find a
/// duplicate, and one probe serves all rows of a (subtree, φ) pair.
class UniverseAssembler {
 public:
  UniverseAssembler(const JoinTreeCatalog& catalog, const ExampleTable& et)
      : catalog_(catalog),
        et_(et),
        rows_(et.num_rows()),
        width_(et.num_columns()),
        cell_hash_(width_) {}

  /// Adds F(Q) for the next candidate Q, in (row, subtree enumeration)
  /// order.
  void AddCandidate(const CandidateQuery& query) {
    const int t = catalog_.Find(query.tree);
    QBE_CHECK_MSG(t >= 0, "candidate tree is not in the join-tree catalog");
    const std::vector<int>& subtrees = catalog_.subtrees(t);
    subtree_pair_.resize(subtrees.size());
    for (int c = 0; c < width_; ++c) {
      cell_hash_[c] = CellHash(c, query.projection[c]);
    }
    for (size_t i = 0; i < subtrees.size(); ++i) {
      subtree_pair_[i] = PairOf(query, subtrees[i]);
    }
    for (int row = 0; row < rows_; ++row) {
      for (size_t i = 0; i < subtrees.size(); ++i) {
        const int s = subtrees[i];
        int& fid = pair_filters_[static_cast<size_t>(subtree_pair_[i]) *
                                     rows_ +
                                 row];
        if (fid < 0) fid = AddFilter(query, s, row);
        u_.filters_of_query.ids.push_back(fid);
        if (s == t) u_.basic_filters_of_query.ids.push_back(fid);
      }
    }
    u_.filters_of_query.EndList();
    u_.basic_filters_of_query.EndList();
    QBE_CHECK(u_.basic_filters_of_query.begin.back() ==
              rows_ * static_cast<int>(u_.filters_of_query.size()));
  }

  /// Derives the converse lists and the class lattice.
  FilterUniverse Finish() && {
    const size_t nq = u_.filters_of_query.size();
    u_.queries_of_filter =
        Invert(nq, u_.num_filters(),
               [&](size_t q) { return u_.filters_of_query[q]; });
    u_.basic_queries_of_filter =
        Invert(nq, u_.num_filters(),
               [&](size_t q) { return u_.basic_filters_of_query[q]; });
    u_.class_members =
        Invert(u_.class_of.size(), num_classes(), [&](size_t f) {
          return std::span<const int>(&u_.class_of[f], 1);
        });
    LinkClasses();
    u_.super_classes = Invert(num_classes(), num_classes(),
                              [&](size_t b) { return u_.sub_classes[b]; });
    return std::move(u_);
  }

 private:
  int num_classes() const { return classes_.size(); }

  /// The (subtree s, φ restriction of `query` to s) pair, added if new.
  /// Expects cell_hash_ to hold the terms of `query`'s projection.
  int PairOf(const CandidateQuery& query, int s) {
    const RelationSet& verts = catalog_.tree(s).verts;
    auto restricted = [&](int c) {
      const ColumnRef& mapped = query.projection[c];
      return verts.Test(mapped.rel) ? mapped : ColumnRef{};
    };
    uint64_t hash = Mix64(static_cast<uint64_t>(s) + 1);
    for (int c = 0; c < width_; ++c) {
      if (verts.Test(query.projection[c].rel)) hash ^= cell_hash_[c];
    }
    for (int pair = pairs_.First(hash); pair >= 0; pair = pairs_.Next(pair)) {
      if (pair_tree_[pair] != s) continue;
      const ColumnRef* phi = &pair_phi_[static_cast<size_t>(pair) * width_];
      bool same = true;
      for (int c = 0; c < width_ && same; ++c) same = phi[c] == restricted(c);
      if (same) return pair;
    }
    pairs_.Add(hash);
    pair_tree_.push_back(s);
    for (int c = 0; c < width_; ++c) pair_phi_.push_back(restricted(c));
    pair_filters_.insert(pair_filters_.end(), rows_, -1);
    return pairs_.size() - 1;
  }

  int AddFilter(const CandidateQuery& query, int tree, int row) {
    const int fid = u_.num_filters();
    u_.filters.push_back(MakeFilter(query, catalog_.tree(tree), et_, row));
    const Filter& filter = u_.filters.back();
    const uint32_t mask = filter.constrained_mask;
    uint64_t hash = ClassSeed(tree, row);
    for (uint32_t m = mask; m != 0; m &= m - 1) {
      const int c = std::countr_zero(m);
      hash ^= CellHash(c, filter.phi[c]);
    }
    int cls = FindClass(hash, tree, row, mask, filter.phi.data());
    if (cls < 0) {
      cls = num_classes();
      classes_.Add(hash);
      class_tree_.push_back(tree);
      class_row_.push_back(row);
      class_mask_.push_back(mask);
      for (int c = 0; c < width_; ++c) {
        class_phi_.push_back(((mask >> c) & 1) != 0 ? filter.phi[c]
                                                    : ColumnRef{});
      }
    }
    u_.class_of.push_back(cls);
    return fid;
  }

  uint64_t ClassSeed(int tree, int row) const {
    return Mix64(static_cast<uint64_t>(tree) * rows_ + row + 1);
  }

  /// The class keyed by (tree, row, mask, φ on mask), or -1. `hash` is
  /// ClassSeed(tree, row) XOR the CellHash terms of the mask's cells.
  int FindClass(uint64_t hash, int tree, int row, uint32_t mask,
                const ColumnRef* phi) const {
    for (int c = classes_.First(hash); c >= 0; c = classes_.Next(c)) {
      if (class_tree_[c] != tree || class_row_[c] != row ||
          class_mask_[c] != mask) {
        continue;
      }
      const ColumnRef* cells = &class_phi_[static_cast<size_t>(c) * width_];
      bool same = true;
      for (uint32_t m = mask; m != 0 && same; m &= m - 1) {
        const int col = std::countr_zero(m);
        same = cells[col] == phi[col];
      }
      if (same) return c;
    }
    return -1;
  }

  /// The class lattice. Class A lies below class B iff they share the row,
  /// A's tree is a subtree of B's, A's mask is a subset of B's, and φ
  /// agrees on A's mask — so A's key is B's φ restricted to one of the
  /// masks present on (subtree of B's tree, row). One keyed lookup per such
  /// (subtree, mask) pair replaces the pairwise filter scan.
  void LinkClasses() {
    // Trees holding classes get dense slots; `masks_at[slot * rows + row]`.
    std::vector<int> slot(catalog_.size(), -1);
    std::vector<std::vector<uint32_t>> masks_at;
    for (int c = 0; c < num_classes(); ++c) {
      int& s = slot[class_tree_[c]];
      if (s < 0) {
        s = static_cast<int>(masks_at.size()) / rows_;
        masks_at.resize(masks_at.size() + rows_);
      }
      std::vector<uint32_t>& masks = masks_at[s * rows_ + class_row_[c]];
      if (std::find(masks.begin(), masks.end(), class_mask_[c]) ==
          masks.end()) {
        masks.push_back(class_mask_[c]);
      }
    }
    for (int b = 0; b < num_classes(); ++b) {
      const ColumnRef* phi = &class_phi_[static_cast<size_t>(b) * width_];
      const int row = class_row_[b];
      for (uint32_t m = class_mask_[b]; m != 0; m &= m - 1) {
        const int c = std::countr_zero(m);
        cell_hash_[c] = CellHash(c, phi[c]);
      }
      for (int s : catalog_.subtrees(class_tree_[b])) {
        if (slot[s] < 0) continue;
        // Cells of B's mask whose mapped relation lies in subtree s.
        uint32_t reach = 0;
        for (uint32_t m = class_mask_[b]; m != 0; m &= m - 1) {
          const int c = std::countr_zero(m);
          if (catalog_.tree(s).verts.Test(phi[c].rel)) {
            reach |= uint32_t{1} << c;
          }
        }
        for (uint32_t mask : masks_at[slot[s] * rows_ + row]) {
          if ((mask & ~reach) != 0) continue;
          uint64_t hash = ClassSeed(s, row);
          for (uint32_t m = mask; m != 0; m &= m - 1) {
            hash ^= cell_hash_[std::countr_zero(m)];
          }
          const int a = FindClass(hash, s, row, mask, phi);
          if (a >= 0) u_.sub_classes.ids.push_back(a);
        }
      }
      u_.sub_classes.EndList();
    }
  }

  const JoinTreeCatalog& catalog_;
  const ExampleTable& et_;
  const int rows_;
  const int width_;
  FilterUniverse u_;

  // A (subtree, φ restriction) pair fixes a filter up to its row:
  // `pair_filters_[pair * rows + row]` is that filter, -1 until first seen.
  // `pair_phi_` holds each pair's φ restriction (width cells per pair).
  HashedIds pairs_;
  std::vector<int> pair_tree_;
  std::vector<ColumnRef> pair_phi_;
  std::vector<int> pair_filters_;

  // Classes, keyed by (subtree, row, φ restricted to the constrained mask);
  // `class_phi_` holds that masked φ (width cells per class).
  HashedIds classes_;
  std::vector<int> class_tree_, class_row_;
  std::vector<uint32_t> class_mask_;
  std::vector<ColumnRef> class_phi_;

  std::vector<uint64_t> cell_hash_;  // CellHash terms of one φ
  std::vector<int> subtree_pair_;    // pair of each subtree of a candidate
};

}  // namespace

FilterUniverse BuildFilterUniverse(const SchemaGraph& graph,
                                   const ExampleTable& et,
                                   const std::vector<CandidateQuery>&
                                       candidates,
                                   const DeadlineToken* deadline) {
  // Catalog ids are the same in every catalog holding the tree.
  int max_vertices = 1;
  for (const CandidateQuery& query : candidates) {
    max_vertices = std::max(max_vertices, query.tree.NumVertices());
  }
  UniverseAssembler assembler(graph.catalog(max_vertices), et);
  for (const CandidateQuery& query : candidates) {
    if (deadline != nullptr && deadline->Expired()) {
      FilterUniverse stopped;
      stopped.stopped_early = true;
      return stopped;
    }
    assembler.AddCandidate(query);
  }
  return std::move(assembler).Finish();
}

}  // namespace qbe
