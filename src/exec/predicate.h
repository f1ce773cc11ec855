#ifndef QBE_EXEC_PREDICATE_H_
#define QBE_EXEC_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/database.h"
#include "util/hash128.h"

namespace qbe {

/// A keyphrase containment predicate — the `CONTAINS(column, 'phrase')`
/// conjunct of a CQ-row verification query (§4.1). `tokens` is the
/// tokenized ET cell value; when `exact` is set the phrase must equal the
/// whole cell (the paper's exact-match extension for numbers, §2.2
/// Remarks).
///
/// `ids` optionally carries the phrase pre-resolved against the database's
/// TokenDict; it is considered resolved iff ids.size() == tokens.size()
/// (position-aligned, TokenDict::kNoToken for unindexed tokens). The
/// executor uses the ids directly when present and falls back to a per-call
/// dictionary lookup otherwise, so hand-built predicates keep working.
///
/// `fingerprint` optionally carries PhraseFingerprint(tokens)
/// (core/example_table.h), computed once per ET cell; the eval-cache key
/// reads it instead of re-hashing the token strings. All-zero means unset,
/// and the key builder then hashes `tokens` itself.
struct PhrasePredicate {
  ColumnRef column;
  std::vector<std::string> tokens;
  bool exact = false;
  std::vector<uint32_t> ids{};
  Hash128 fingerprint{};
};

}  // namespace qbe

#endif  // QBE_EXEC_PREDICATE_H_
