#include "core/eval_cache.h"

#include <algorithm>
#include <tuple>

#include "core/example_table.h"
#include "util/check.h"

namespace qbe {
namespace {

/// One predicate's part of the key: (gid << 1 | exact) and the phrase
/// fingerprint.
struct KeyTriple {
  uint64_t column;
  uint64_t phrase_hi;
  uint64_t phrase_lo;
};

}  // namespace

EvalCacheKey MakeEvalCacheKey(const Database& db, const JoinTree& tree,
                              const std::vector<PhrasePredicate>& predicates,
                              std::span<const uint64_t> relation_versions) {
  // One predicate per ET column at most; hand-built predicate lists are
  // held to the same bound.
  constexpr size_t kMaxPredicates = ExampleTable::kMaxColumns;
  QBE_CHECK(predicates.size() <= kMaxPredicates);
  KeyTriple triples[kMaxPredicates];
  size_t n = 0;
  for (const PhrasePredicate& pred : predicates) {
    const Hash128 phrase = pred.fingerprint == Hash128{}
                               ? PhraseFingerprint(pred.tokens)
                               : pred.fingerprint;
    const uint32_t gid = static_cast<uint32_t>(db.TextColumnGid(pred.column));
    triples[n++] = {uint64_t{gid} << 1 | (pred.exact ? 1 : 0), phrase.hi,
                    phrase.lo};
  }
  // The predicates form a multiset: sorting makes the key independent of
  // their order.
  std::sort(triples, triples + n, [](const KeyTriple& a, const KeyTriple& b) {
    return std::tie(a.column, a.phrase_hi, a.phrase_lo) <
           std::tie(b.column, b.phrase_hi, b.phrase_lo);
  });

  // Fixed-width fields first, then one version per tree vertex (the vertex
  // bitset tells how many), then three words per predicate: the word count
  // tells the predicate count, so distinct queries give distinct word
  // sequences.
  Hasher128 hasher;
  for (int w = 0; w < RelationSet::kCapacity / 64; ++w) {
    hasher.Add(tree.verts.word(w));
  }
  for (int w = 0; w < EdgeSet::kCapacity / 64; ++w) {
    hasher.Add(tree.edges.word(w));
  }
  tree.verts.ForEach([&](int rel) {
    hasher.Add(relation_versions.empty() ? 0 : relation_versions[rel]);
  });
  for (size_t i = 0; i < n; ++i) {
    hasher.Add(triples[i].column);
    hasher.Add(triples[i].phrase_hi);
    hasher.Add(triples[i].phrase_lo);
  }
  return hasher.Finish();
}

size_t OutcomeTable::Probe(const EvalCacheKey& key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(key);
  while (slots_[i].state != kEmpty && !(slots_[i].key == key)) {
    i = (i + 1) & mask;
  }
  return i;
}

std::optional<bool> OutcomeTable::Find(const EvalCacheKey& key) const {
  if (size_ == 0) return std::nullopt;
  const Slot& slot = slots_[Probe(key)];
  if (slot.state == kEmpty) return std::nullopt;
  return slot.state == kTrue;
}

bool OutcomeTable::Insert(const EvalCacheKey& key, bool outcome) {
  // Grow before probing so the slot found stays valid; at most half full
  // keeps a miss's probe run short.
  if (2 * (size_ + 1) > slots_.size()) Grow();
  Slot& slot = slots_[Probe(key)];
  if (slot.state != kEmpty) return false;
  slot.key = key;
  slot.state = outcome ? kTrue : kFalse;
  ++size_;
  return true;
}

std::optional<bool> OutcomeTable::Take(const EvalCacheKey& key) {
  if (size_ == 0) return std::nullopt;
  size_t hole = Probe(key);
  if (slots_[hole].state == kEmpty) return std::nullopt;
  const bool outcome = slots_[hole].state == kTrue;
  // Backward-shift deletion: an entry later in the run moves into the hole
  // when the hole lies between its home and its slot, so no probe run is
  // cut short and no tombstones are needed.
  const size_t mask = slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; slots_[j].state != kEmpty;
       j = (j + 1) & mask) {
    if (((j - Home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].state = kEmpty;
  --size_;
  return outcome;
}

void OutcomeTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kMinCapacity : 2 * old.size(), Slot{});
  for (const Slot& slot : old) {
    if (slot.state != kEmpty) slots_[Probe(slot.key)] = slot;
  }
}

}  // namespace qbe
