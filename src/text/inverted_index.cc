#include "text/inverted_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "kernels/kernels.h"
#include "text/tokenizer.h"

namespace qbe {

template <typename CellAt>
void InvertedIndex::BuildImpl(size_t num_cells, const CellAt& cell_at,
                              TokenDict* dict) {
  if (dict == nullptr) {
    owned_dict_ = std::make_unique<TokenDict>();
    dict = owned_dict_.get();
  } else {
    owned_dict_.reset();
  }
  dict_ = dict;
  num_rows_ = num_cells;
  std::vector<uint16_t> row_token_counts(num_cells, 0);
  long_rows_.clear();

  struct Occurrence {
    uint32_t token;
    uint64_t posting;
  };
  std::vector<Occurrence> occurrences;
  for (uint32_t row = 0; row < num_cells; ++row) {
    uint32_t pos = 0;
    ForEachToken(cell_at(row), [&](std::string_view token) {
      occurrences.push_back(
          Occurrence{dict->Intern(token), PackPosting(row, pos)});
      ++pos;
    });
    if (pos >= kLongRow) {
      row_token_counts[row] = kLongRow;
      long_rows_[row] = pos;
    } else {
      row_token_counts[row] = static_cast<uint16_t>(pos);
    }
  }
  row_token_counts_ = std::move(row_token_counts);

  // Counting sort by token id. Occurrences were generated in (row,
  // position) order, so each token's span comes out posting-sorted without
  // a comparison sort.
  const uint32_t universe = static_cast<uint32_t>(dict->size());
  std::vector<uint32_t> slot_map(universe, kNoSlot);
  std::vector<uint32_t> counts(universe, 0);
  for (const Occurrence& o : occurrences) ++counts[o.token];
  std::vector<uint32_t> token_ids;
  std::vector<uint32_t> offsets(1, 0);
  for (uint32_t id = 0; id < universe; ++id) {
    if (counts[id] == 0) continue;
    slot_map[id] = static_cast<uint32_t>(token_ids.size());
    token_ids.push_back(id);
    offsets.push_back(offsets.back() + counts[id]);
  }
  std::vector<uint64_t> postings(occurrences.size());
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Occurrence& o : occurrences) {
    postings[cursor[slot_map[o.token]]++] = o.posting;
  }

  std::vector<uint32_t> row_counts(token_ids.size(), 0);
  for (size_t s = 0; s < token_ids.size(); ++s) {
    uint32_t n = 0;
    uint32_t prev = UINT32_MAX;
    for (uint32_t i = offsets[s]; i < offsets[s + 1]; ++i) {
      uint32_t row = static_cast<uint32_t>(postings[i] >> 32);
      if (row != prev) {
        ++n;
        prev = row;
      }
    }
    row_counts[s] = n;
  }

  // Lookup layout: keep the dense id→slot table when its footprint is
  // within ~4x of the sorted-array alternative (O(1) probes); otherwise
  // drop it and binary-search token_ids_ (a small column sharing a large
  // database dictionary shouldn't pay 4 bytes per foreign token).
  if (static_cast<size_t>(universe) <= token_ids.size() * 4 + 64) {
    slot_of_id_ = std::move(slot_map);
  } else {
    slot_of_id_ = std::vector<uint32_t>();
  }
  postings_ = std::move(postings);
  token_ids_ = std::move(token_ids);
  offsets_ = std::move(offsets);
  row_counts_ = std::move(row_counts);
}

void InvertedIndex::Build(const std::vector<std::string>& cells,
                          TokenDict* dict) {
  BuildImpl(
      cells.size(),
      [&](uint32_t row) { return std::string_view(cells[row]); }, dict);
}

void InvertedIndex::Build(const TextColumnStore& cells, TokenDict* dict) {
  BuildImpl(
      cells.size(), [&](uint32_t row) { return cells[row]; }, dict);
}

void InvertedIndex::LoadMapped(const TokenDict* dict, size_t num_rows,
                               SpanOrVec<uint64_t> postings,
                               SpanOrVec<uint32_t> token_ids,
                               SpanOrVec<uint32_t> offsets,
                               SpanOrVec<uint32_t> row_counts,
                               SpanOrVec<uint32_t> slot_of_id,
                               SpanOrVec<uint16_t> row_token_counts,
                               std::span<const uint32_t> long_row_pairs) {
  owned_dict_.reset();
  dict_ = dict;
  num_rows_ = num_rows;
  postings_ = std::move(postings);
  token_ids_ = std::move(token_ids);
  offsets_ = std::move(offsets);
  row_counts_ = std::move(row_counts);
  slot_of_id_ = std::move(slot_of_id);
  row_token_counts_ = std::move(row_token_counts);
  long_rows_.clear();
  for (size_t i = 0; i + 1 < long_row_pairs.size(); i += 2) {
    long_rows_[long_row_pairs[i]] = long_row_pairs[i + 1];
  }
}

uint32_t InvertedIndex::SlotOf(uint32_t token_id) const {
  if (!slot_of_id_.empty()) {
    return token_id < slot_of_id_.size() ? slot_of_id_[token_id] : kNoSlot;
  }
  auto it = std::lower_bound(token_ids_.begin(), token_ids_.end(), token_id);
  if (it == token_ids_.end() || *it != token_id) return kNoSlot;
  return static_cast<uint32_t>(it - token_ids_.begin());
}

void InvertedIndex::MatchPhraseIdsInto(std::span<const uint32_t> ids,
                                       std::vector<uint32_t>* rows) const {
  rows->clear();
  if (ids.empty()) {
    rows->resize(num_rows_);
    std::iota(rows->begin(), rows->end(), 0);
    return;
  }
  constexpr size_t kInlineSlots = 16;
  uint32_t slot_buf[kInlineSlots];
  std::vector<uint32_t> slot_heap;
  uint32_t* slots = slot_buf;
  if (ids.size() > kInlineSlots) {
    slot_heap.resize(ids.size());
    slots = slot_heap.data();
  }
  for (size_t k = 0; k < ids.size(); ++k) {
    if (ids[k] == TokenDict::kNoToken) return;
    uint32_t s = SlotOf(ids[k]);
    if (s == kNoSlot) return;
    slots[k] = s;
  }
  if (ids.size() == 1) {
    // Distinct rows of the single token's span, already ascending.
    for (uint32_t i = offsets_[slots[0]]; i < offsets_[slots[0] + 1]; ++i) {
      const uint32_t row = static_cast<uint32_t>(postings_[i] >> 32);
      if (rows->empty() || rows->back() != row) rows->push_back(row);
    }
    return;
  }

  // A posting (row, pos) of the phrase's k-th token witnesses a potential
  // phrase start (row, pos - k); a full occurrence is a packed start value
  // present in every token's shifted span. Intersect spans in ascending
  // length order — galloping when the candidate set is far smaller than the
  // next span, linear positional merge otherwise (similar-length lists,
  // where per-candidate binary search loses).
  size_t order_buf[kInlineSlots];
  std::vector<size_t> order_heap;
  size_t* order = order_buf;
  if (ids.size() > kInlineSlots) {
    order_heap.resize(ids.size());
    order = order_heap.data();
  }
  for (size_t k = 0; k < ids.size(); ++k) order[k] = k;
  std::sort(order, order + ids.size(), [&](size_t a, size_t b) {
    return offsets_[slots[a] + 1] - offsets_[slots[a]] <
           offsets_[slots[b] + 1] - offsets_[slots[b]];
  });

  thread_local std::vector<uint64_t> cand;
  thread_local std::vector<uint64_t> next;
  cand.clear();
  {
    const size_t k = order[0];
    const uint32_t s = slots[k];
    for (uint32_t i = offsets_[s]; i < offsets_[s + 1]; ++i) {
      const uint64_t p = postings_[i];
      if (static_cast<uint32_t>(p) >= k) cand.push_back(p - k);
    }
  }
  for (size_t j = 1; j < ids.size() && !cand.empty(); ++j) {
    const size_t k = order[j];
    const uint32_t s = slots[k];
    // Batched shifted-span merge on the dispatched kernel layer: keeps the
    // candidates whose k-shifted witness occurs in this token's span,
    // galloping when the span dwarfs the candidate set (DESIGN.md §14).
    kernels::IntersectShiftedInPlace(
        &cand,
        std::span<const uint64_t>(postings_.data() + offsets_[s],
                                  offsets_[s + 1] - offsets_[s]),
        static_cast<uint64_t>(k), &next);
  }
  for (uint64_t c : cand) {
    const uint32_t row = static_cast<uint32_t>(c >> 32);
    if (rows->empty() || rows->back() != row) rows->push_back(row);
  }
}

std::vector<uint32_t> InvertedIndex::MatchPhraseIds(
    std::span<const uint32_t> ids) const {
  std::vector<uint32_t> rows;
  MatchPhraseIdsInto(ids, &rows);
  return rows;
}

void InvertedIndex::MatchExactIdsInto(std::span<const uint32_t> ids,
                                      std::vector<uint32_t>* rows) const {
  rows->clear();
  if (ids.empty()) {
    // A cell "equals" the empty phrase iff it tokenizes to nothing.
    for (uint32_t row = 0; row < num_rows_; ++row) {
      if (row_token_counts_[row] == 0) rows->push_back(row);
    }
    return;
  }
  const uint32_t want_count = static_cast<uint32_t>(ids.size());
  if (ids[0] == TokenDict::kNoToken) return;
  const uint32_t first_slot = SlotOf(ids[0]);
  if (first_slot == kNoSlot) return;
  for (size_t k = 1; k < ids.size(); ++k) {
    if (ids[k] == TokenDict::kNoToken || SlotOf(ids[k]) == kNoSlot) return;
  }
  // Exact match = phrase occurrence at position 0 covering the whole cell.
  for (uint32_t i = offsets_[first_slot]; i < offsets_[first_slot + 1]; ++i) {
    const uint64_t posting = postings_[i];
    const uint32_t row = static_cast<uint32_t>(posting >> 32);
    if (static_cast<uint32_t>(posting) != 0) continue;
    if (RowTokenCount(row) != want_count) continue;
    bool ok = true;
    for (size_t k = 1; k < ids.size() && ok; ++k) {
      const uint32_t s = SlotOf(ids[k]);
      const uint64_t want = PackPosting(row, static_cast<uint32_t>(k));
      const uint64_t* begin = postings_.data() + offsets_[s];
      const uint64_t* end = postings_.data() + offsets_[s + 1];
      const uint64_t* it = std::lower_bound(begin, end, want);
      ok = it != end && *it == want;
    }
    if (ok) rows->push_back(row);
  }
}

bool InvertedIndex::AnyMatchIds(std::span<const uint32_t> ids) const {
  if (ids.empty()) return num_rows_ > 0;
  // Same scan as MatchPhraseIdsInto with a first-hit exit.
  constexpr size_t kInlineSlots = 16;
  uint32_t slot_buf[kInlineSlots];
  std::vector<uint32_t> slot_heap;
  uint32_t* slots = slot_buf;
  if (ids.size() > kInlineSlots) {
    slot_heap.resize(ids.size());
    slots = slot_heap.data();
  }
  size_t anchor = 0;
  uint32_t best = UINT32_MAX;
  for (size_t k = 0; k < ids.size(); ++k) {
    if (ids[k] == TokenDict::kNoToken) return false;
    uint32_t s = SlotOf(ids[k]);
    if (s == kNoSlot) return false;
    slots[k] = s;
    if (row_counts_[s] < best) {
      best = row_counts_[s];
      anchor = k;
    }
  }
  const uint32_t anchor_slot = slots[anchor];
  for (uint32_t i = offsets_[anchor_slot]; i < offsets_[anchor_slot + 1];
       ++i) {
    const uint64_t posting = postings_[i];
    const uint32_t row = static_cast<uint32_t>(posting >> 32);
    const uint32_t pos = static_cast<uint32_t>(posting);
    if (pos < anchor) continue;
    const uint32_t start = pos - static_cast<uint32_t>(anchor);
    bool ok = true;
    for (size_t k = 0; k < ids.size() && ok; ++k) {
      if (k == anchor) continue;
      const uint64_t want =
          PackPosting(row, start + static_cast<uint32_t>(k));
      const uint64_t* begin = postings_.data() + offsets_[slots[k]];
      const uint64_t* end = postings_.data() + offsets_[slots[k] + 1];
      const uint64_t* it = std::lower_bound(begin, end, want);
      ok = it != end && *it == want;
    }
    if (ok) return true;
  }
  return false;
}

size_t InvertedIndex::TokenRowCountId(uint32_t token_id) const {
  if (token_id == TokenDict::kNoToken) return 0;
  const uint32_t slot = SlotOf(token_id);
  return slot == kNoSlot ? 0 : row_counts_[slot];
}

std::vector<uint32_t> InvertedIndex::MatchPhrase(
    const std::vector<std::string>& phrase) const {
  if (dict_ == nullptr) return {};  // never built: empty index
  return MatchPhraseIds(dict_->IdsOf(phrase));
}

std::vector<uint32_t> InvertedIndex::MatchAllPhrases(
    const std::vector<std::vector<std::string>>& phrases) const {
  if (phrases.empty()) return MatchPhrase({});
  std::vector<uint32_t> acc = MatchPhrase(phrases[0]);
  std::vector<uint32_t> next;
  std::vector<uint32_t> scratch;
  for (size_t i = 1; i < phrases.size() && !acc.empty(); ++i) {
    if (dict_ == nullptr) return {};
    MatchPhraseIdsInto(dict_->IdsOf(phrases[i]), &next);
    kernels::IntersectSortedInPlace(&acc, next, &scratch);
  }
  return acc;
}

bool InvertedIndex::AnyMatch(const std::vector<std::string>& phrase) const {
  if (phrase.empty()) return num_rows_ > 0;
  if (dict_ == nullptr) return false;
  return AnyMatchIds(dict_->IdsOf(phrase));
}

size_t InvertedIndex::TokenRowCount(std::string_view token) const {
  if (dict_ == nullptr) return 0;
  return TokenRowCountId(dict_->Find(token));
}

size_t InvertedIndex::MemoryBytes() const {
  size_t bytes =
      postings_.OwnedBytes() + token_ids_.OwnedBytes() +
      offsets_.OwnedBytes() + row_counts_.OwnedBytes() +
      slot_of_id_.OwnedBytes() + row_token_counts_.OwnedBytes() +
      long_rows_.size() * 24;  // node + key/value estimate
  if (owned_dict_ != nullptr) bytes += owned_dict_->MemoryBytes();
  return bytes;
}

}  // namespace qbe
