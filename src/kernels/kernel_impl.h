#ifndef QBE_SRC_KERNELS_KERNEL_IMPL_H_
#define QBE_SRC_KERNELS_KERNEL_IMPL_H_

#include <cstddef>
#include <cstdint>

/// Internal: raw per-tier kernel entry points, linked into the dispatch
/// table by kernels.cc. The AVX2 tier lives in its own translation unit so
/// it can be compiled with -mavx2 without leaking wide instructions into
/// code that runs before dispatch — the only symbols in that TU are these
/// entry points, reached strictly after the CPUID check.
///
/// QBE_AVX2_TIER gates the AVX2 tier: on other architectures only the
/// scalar entries exist and dispatch resolves to them.

#if defined(__x86_64__) || defined(__i386__)
#define QBE_AVX2_TIER 1
#endif

namespace qbe::kernel_impl {

namespace scalar {
size_t IntersectU32(const uint32_t* a, size_t na, const uint32_t* b,
                    size_t nb, uint32_t* out);
size_t IntersectShiftedU64(const uint64_t* cand, size_t nc,
                           const uint64_t* span, size_t ns, uint64_t shift,
                           uint64_t* out);
size_t BitmapEmit(const uint64_t* words, size_t num_words, uint32_t* out);
}  // namespace scalar

#ifdef QBE_AVX2_TIER
namespace avx2 {
size_t IntersectU32(const uint32_t* a, size_t na, const uint32_t* b,
                    size_t nb, uint32_t* out);
size_t IntersectShiftedU64(const uint64_t* cand, size_t nc,
                           const uint64_t* span, size_t ns, uint64_t shift,
                           uint64_t* out);
size_t BitmapEmit(const uint64_t* words, size_t num_words, uint32_t* out);
}  // namespace avx2
#endif  // QBE_AVX2_TIER

}  // namespace qbe::kernel_impl

#endif  // QBE_SRC_KERNELS_KERNEL_IMPL_H_
