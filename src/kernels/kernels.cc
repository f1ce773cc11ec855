#include "kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "kernels/kernel_impl.h"
#include "util/check.h"

namespace qbe {
namespace {

constexpr KernelOps kScalarOps = {
    kernel_impl::scalar::IntersectU32,
    kernel_impl::scalar::IntersectShiftedU64,
    kernel_impl::scalar::BitmapEmit,
};

#ifdef QBE_AVX2_TIER
constexpr KernelOps kAvx2Ops = {
    kernel_impl::avx2::IntersectU32,
    kernel_impl::avx2::IntersectShiftedU64,
    kernel_impl::avx2::BitmapEmit,
};
#endif  // QBE_AVX2_TIER

/// Widest level this CPU can run, probed once (CPUID via the compiler's
/// cpu_supports runtime).
KernelLevel WidestSupported() {
  static const KernelLevel widest = [] {
#ifdef QBE_AVX2_TIER
    if (__builtin_cpu_supports("avx2")) return KernelLevel::kAvx2;
#endif
    return KernelLevel::kScalar;
  }();
  return widest;
}

std::atomic<int>& ActiveLevelSlot() {
  static std::atomic<int> slot{static_cast<int>(WidestSupported())};
  return slot;
}

/// The table for a level already known to be supported.
const KernelOps& OpsOf(KernelLevel level) {
#ifdef QBE_AVX2_TIER
  if (level == KernelLevel::kAvx2) return kAvx2Ops;
#else
  (void)level;
#endif
  return kScalarOps;
}

}  // namespace

const char* KernelLevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar: return "scalar";
    case KernelLevel::kAvx2: return "avx2";
  }
  return "unknown";
}

bool KernelLevelSupported(KernelLevel level) {
  return static_cast<int>(level) <= static_cast<int>(WidestSupported());
}

KernelLevel ActiveKernelLevel() {
  return static_cast<KernelLevel>(
      ActiveLevelSlot().load(std::memory_order_relaxed));
}

void ForceKernelLevel(KernelLevel level) {
  QBE_CHECK_MSG(KernelLevelSupported(level),
                "ForceKernelLevel: level not supported on this CPU");
  ActiveLevelSlot().store(static_cast<int>(level),
                          std::memory_order_relaxed);
}

const KernelOps& KernelOpsFor(KernelLevel level) {
  QBE_CHECK_MSG(KernelLevelSupported(level),
                "KernelOpsFor: level not supported on this CPU");
  return OpsOf(level);
}

// Only ForceKernelLevel and the first-use probe write the active level,
// and both admit supported levels only, so no check is needed here.
const KernelOps& ActiveKernelOps() { return OpsOf(ActiveKernelLevel()); }

namespace kernels {

namespace {

/// Skew threshold shared by every adaptive path: gallop when the larger
/// side is ≥16x the smaller — the shape semijoin reductions and selective
/// predicate seeds hit constantly. tests/kernels_test.cc probes both sides
/// of this boundary at every level.
constexpr size_t kGallopSkew = 16;

/// One body for the uint32_t and int overloads: sorted non-negative ints
/// order identically to their uint32 bit patterns, so the u32 kernels
/// apply unchanged to both.
template <typename T>
void IntersectSorted(std::span<const T> a, std::span<const T> b,
                     std::vector<T>* out) {
  static_assert(sizeof(T) == sizeof(uint32_t));
  out->clear();
  const std::span<const T> small = a.size() <= b.size() ? a : b;
  const std::span<const T> large = a.size() <= b.size() ? b : a;
  if (small.empty()) return;
  if (large.size() / kGallopSkew >= small.size()) {
    // Binary-probe the large side with a shrinking search window.
    const T* lo = large.data();
    const T* end = large.data() + large.size();
    for (T v : small) {
      lo = std::lower_bound(lo, end, v);
      if (lo == end) break;
      if (*lo == v) out->push_back(v);
    }
    return;
  }
  out->resize(small.size() + kIntersectPad32);
  const size_t n = ActiveKernelOps().intersect_u32(
      reinterpret_cast<const uint32_t*>(small.data()), small.size(),
      reinterpret_cast<const uint32_t*>(large.data()), large.size(),
      reinterpret_cast<uint32_t*>(out->data()));
  out->resize(n);
}

}  // namespace

void IntersectSortedInto(std::span<const uint32_t> a,
                         std::span<const uint32_t> b,
                         std::vector<uint32_t>* out) {
  IntersectSorted(a, b, out);
}

void IntersectSortedInPlace(std::vector<uint32_t>* a,
                            std::span<const uint32_t> b,
                            std::vector<uint32_t>* scratch) {
  IntersectSorted<uint32_t>(*a, b, scratch);
  std::swap(*a, *scratch);
}

void IntersectSortedInto(std::span<const int> a, std::span<const int> b,
                         std::vector<int>* out) {
  IntersectSorted(a, b, out);
}

void IntersectSortedInPlace(std::vector<int>* a, std::span<const int> b,
                            std::vector<int>* scratch) {
  IntersectSorted<int>(*a, b, scratch);
  std::swap(*a, *scratch);
}

void IntersectShiftedInPlace(std::vector<uint64_t>* cand,
                             std::span<const uint64_t> span, uint64_t shift,
                             std::vector<uint64_t>* scratch) {
  scratch->clear();
  if (!cand->empty()) {
    if (span.size() / kGallopSkew >= cand->size()) {
      // Gallop from the candidate side with an advancing lower bound.
      const uint64_t* lo = span.data();
      const uint64_t* end = span.data() + span.size();
      for (uint64_t c : *cand) {
        const uint64_t want = c + shift;
        lo = std::lower_bound(lo, end, want);
        if (lo == end) break;
        if (*lo == want) scratch->push_back(c);
      }
    } else {
      scratch->resize(cand->size() + kIntersectPad64);
      const size_t n = ActiveKernelOps().intersect_shifted_u64(
          cand->data(), cand->size(), span.data(), span.size(), shift,
          scratch->data());
      scratch->resize(n);
    }
  }
  std::swap(*cand, *scratch);
}

void BitmapSetBatch(std::vector<uint64_t>* bits,
                    std::span<const uint32_t> rows) {
  uint64_t* words = bits->data();
  for (uint32_t row : rows) {
    words[row >> 6] |= uint64_t{1} << (row & 63);
  }
}

void BitmapEmitInto(const std::vector<uint64_t>& bits,
                    std::vector<uint32_t>* out) {
  size_t total = 0;
  for (uint64_t word : bits) total += std::popcount(word);
  out->resize(total);
  const size_t n =
      ActiveKernelOps().bitmap_emit(bits.data(), bits.size(), out->data());
  QBE_DCHECK(n == total);
  (void)n;
}

}  // namespace kernels

}  // namespace qbe
