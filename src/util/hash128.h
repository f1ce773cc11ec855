#ifndef QBE_UTIL_HASH128_H_
#define QBE_UTIL_HASH128_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace qbe {

/// A 128-bit hash value (two 64-bit halves).
struct Hash128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
  friend auto operator<=>(const Hash128&, const Hash128&) = default;
};

/// Streaming 128-bit hash over a sequence of 64-bit words: the block,
/// tail and finalization steps of MurmurHash3_x64_128 (Austin Appleby,
/// public domain), fed whole words instead of bytes. The word count is
/// mixed in at Finish, so a caller that makes its word sequence
/// self-delimiting (fixed-width fields, lengths before variable ones) gets
/// distinct inputs mapped to distinct sequences; equal hashes of distinct
/// inputs are then collisions of the hash itself.
class Hasher128 {
 public:
  void Add(uint64_t word) {
    ++words_;
    if (!has_pending_) {
      pending_ = word;
      has_pending_ = true;
      return;
    }
    has_pending_ = false;
    Block(pending_, word);
  }

  /// Adds `bytes` as its length followed by its bytes packed little-end
  /// first into words, the last one zero-padded.
  void AddBytes(std::string_view bytes) {
    Add(bytes.size());
    size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
      uint64_t word;
      std::memcpy(&word, bytes.data() + i, sizeof(word));
      Add(word);
    }
    if (i < bytes.size()) {
      uint64_t word = 0;
      std::memcpy(&word, bytes.data() + i, bytes.size() - i);
      Add(word);
    }
  }

  Hash128 Finish() const {
    uint64_t h1 = h1_;
    uint64_t h2 = h2_;
    if (has_pending_) h1 ^= Rotl(pending_ * kC1, 31) * kC2;
    const uint64_t len = words_ * 8;
    h1 ^= len;
    h2 ^= len;
    h1 += h2;
    h2 += h1;
    h1 = Fmix(h1);
    h2 = Fmix(h2);
    h1 += h2;
    h2 += h1;
    return Hash128{h1, h2};
  }

 private:
  static constexpr uint64_t kC1 = 0x87c37b91114253d5ULL;
  static constexpr uint64_t kC2 = 0x4cf5ad432745937fULL;

  static uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

  static uint64_t Fmix(uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
  }

  void Block(uint64_t k1, uint64_t k2) {
    h1_ ^= Rotl(k1 * kC1, 31) * kC2;
    h1_ = Rotl(h1_, 27) + h2_;
    h1_ = h1_ * 5 + 0x52dce729;
    h2_ ^= Rotl(k2 * kC2, 33) * kC1;
    h2_ = Rotl(h2_, 31) + h1_;
    h2_ = h2_ * 5 + 0x38495ab5;
  }

  uint64_t h1_ = 0;
  uint64_t h2_ = 0;
  uint64_t pending_ = 0;
  bool has_pending_ = false;
  uint64_t words_ = 0;
};

}  // namespace qbe

#endif  // QBE_UTIL_HASH128_H_
