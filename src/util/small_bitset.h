#ifndef QBE_UTIL_SMALL_BITSET_H_
#define QBE_UTIL_SMALL_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/check.h"

namespace qbe {

/// Fixed-capacity bitset sized for catalog-level entities (relations, FK
/// edges, text columns). Join trees, filters and all dependency-lemma tests
/// reduce to subset/intersection operations on these, so the representation
/// is a few machine words with branch-free operations.
template <int kWords>
class SmallBitset {
 public:
  static constexpr int kCapacity = kWords * 64;

  constexpr SmallBitset() : words_{} {}

  void Set(int i) {
    QBE_DCHECK(i >= 0 && i < kCapacity);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  void Reset(int i) {
    QBE_DCHECK(i >= 0 && i < kCapacity);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  bool Test(int i) const {
    QBE_DCHECK(i >= 0 && i < kCapacity);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  int Count() const {
    int n = 0;
    for (uint64_t w : words_) n += std::popcount(w);
    return n;
  }

  bool Empty() const {
    for (uint64_t w : words_)
      if (w != 0) return false;
    return true;
  }

  /// True iff every bit of *this is also set in `other`.
  bool IsSubsetOf(const SmallBitset& other) const {
    for (int i = 0; i < kWords; ++i)
      if ((words_[i] & ~other.words_[i]) != 0) return false;
    return true;
  }

  bool Intersects(const SmallBitset& other) const {
    for (int i = 0; i < kWords; ++i)
      if ((words_[i] & other.words_[i]) != 0) return true;
    return false;
  }

  SmallBitset Union(const SmallBitset& other) const {
    SmallBitset r;
    for (int i = 0; i < kWords; ++i) r.words_[i] = words_[i] | other.words_[i];
    return r;
  }

  SmallBitset Intersect(const SmallBitset& other) const {
    SmallBitset r;
    for (int i = 0; i < kWords; ++i) r.words_[i] = words_[i] & other.words_[i];
    return r;
  }

  SmallBitset Minus(const SmallBitset& other) const {
    SmallBitset r;
    for (int i = 0; i < kWords; ++i) r.words_[i] = words_[i] & ~other.words_[i];
    return r;
  }

  /// Index of the lowest set bit, or -1 when empty.
  int First() const {
    for (int i = 0; i < kWords; ++i)
      if (words_[i] != 0) return i * 64 + std::countr_zero(words_[i]);
    return -1;
  }

  /// Index of the lowest set bit strictly greater than `i`, or -1.
  int Next(int i) const {
    ++i;
    if (i >= kCapacity) return -1;
    int w = i >> 6;
    uint64_t masked = words_[w] & (~uint64_t{0} << (i & 63));
    if (masked != 0) return w * 64 + std::countr_zero(masked);
    for (++w; w < kWords; ++w)
      if (words_[w] != 0) return w * 64 + std::countr_zero(words_[w]);
    return -1;
  }

  /// Calls `fn(index)` for every set bit in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int i = First(); i >= 0; i = Next(i)) fn(i);
  }

  friend bool operator==(const SmallBitset& a, const SmallBitset& b) {
    for (int i = 0; i < kWords; ++i)
      if (a.words_[i] != b.words_[i]) return false;
    return true;
  }

  /// The `i`-th 64-bit word (bits 64*i .. 64*i+63).
  uint64_t word(int i) const {
    QBE_DCHECK(i >= 0 && i < kWords);
    return words_[i];
  }

  size_t Hash() const {
    size_t h = 0xcbf29ce484222325ULL;
    for (uint64_t w : words_) {
      h ^= w;
      h *= 0x100000001b3ULL;
    }
    return h;
  }

 private:
  uint64_t words_[kWords];
};

/// Capacity choices cover the paper's datasets with headroom: IMDB has 21
/// relations / 22 edges, CUST has 100 relations / 63 edges.
using RelationSet = SmallBitset<2>;  // up to 128 relations
using EdgeSet = SmallBitset<3>;      // up to 192 foreign-key edges

}  // namespace qbe

#endif  // QBE_UTIL_SMALL_BITSET_H_
