// Portable scalar kernels — the oracle the AVX2 level must match
// bit-for-bit, and the only level on CPUs (or architectures) without
// AVX2. Plain two-pointer merges and ctz word scans; the compiler
// is free to autovectorize, but correctness never depends on it.

#include <bit>

#include "kernels/kernel_impl.h"

namespace qbe::kernel_impl::scalar {

size_t IntersectU32(const uint32_t* a, size_t na, const uint32_t* b,
                    size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, n = 0;
  while (i < na && j < nb) {
    const uint32_t va = a[i], vb = b[j];
    if (va < vb) {
      ++i;
    } else if (va > vb) {
      ++j;
    } else {
      out[n++] = va;
      ++i;
      ++j;
    }
  }
  return n;
}

size_t IntersectShiftedU64(const uint64_t* cand, size_t nc,
                           const uint64_t* span, size_t ns, uint64_t shift,
                           uint64_t* out) {
  size_t i = 0, j = 0, n = 0;
  while (i < nc && j < ns) {
    const uint64_t want = cand[i] + shift;
    if (want < span[j]) {
      ++i;
    } else if (want > span[j]) {
      ++j;
    } else {
      out[n++] = cand[i];
      ++i;
      ++j;
    }
  }
  return n;
}

size_t BitmapEmit(const uint64_t* words, size_t num_words, uint32_t* out) {
  size_t n = 0;
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t word = words[w];
    while (word != 0) {
      out[n++] = static_cast<uint32_t>(w * 64 + std::countr_zero(word));
      word &= word - 1;  // clear lowest set bit
    }
  }
  return n;
}

}  // namespace qbe::kernel_impl::scalar
