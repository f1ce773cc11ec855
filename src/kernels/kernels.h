#ifndef QBE_SRC_KERNELS_KERNELS_H_
#define QBE_SRC_KERNELS_KERNELS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace qbe {

/// CPUID-dispatched kernels under the verification hot path
/// (DESIGN.md §14). Every scalar loop that dominates CQ-row verification —
/// sorted-uint32 set intersection, the positional shifted-span merge behind
/// phrase matching, and the semijoin row bitmaps — funnels through one of
/// the function pointers in KernelOps. There are two tables, picked once
/// at startup from CPUID alone: AVX2 when the CPU has it, else the portable
/// scalar kernels.
///
/// Contract: every kernel is bit-identical to the scalar oracle — same
/// output values in the same order for any input — so the dispatch level
/// can never change discovery output, verification counts, or cache key
/// sets. tests/kernels_test.cc enforces this differentially, and the golden
/// harness (tests/golden/verify_counts.json) pins the end-to-end counts.

/// Dispatch levels. On non-x86 builds only kScalar exists. The values are
/// what the service's kernel_level gauge reports.
enum class KernelLevel : int {
  kScalar = 0,
  kAvx2 = 2,  // AVX2: 8×32-bit / 4×64-bit blocks, 256-bit zero-block skip
};

const char* KernelLevelName(KernelLevel level);

/// True when this CPU (and this build) can run `level`. kScalar is always
/// supported.
bool KernelLevelSupported(KernelLevel level);

/// The level the process is currently dispatching to: the widest level
/// this CPU supports, probed once on first use, unless ForceKernelLevel
/// changed it.
KernelLevel ActiveKernelLevel();

/// Test/bench seam: swaps the active dispatch table, so the scalar
/// reference can run on an AVX2 machine. QBE_CHECKs that `level` is
/// supported. Not thread-safe against in-flight requests — call between
/// requests only (tests and the micro-benches do).
void ForceKernelLevel(KernelLevel level);

/// Raw per-level entry points. All array variants may read/write full
/// vector blocks, so destination buffers need the documented slack; the
/// IntersectSortedInto-style wrappers below handle sizing and are what
/// product code calls.
struct KernelOps {
  /// Sorted-unique u32 intersection (dense linear/SIMD merge; the gallop
  /// hybrid for skewed inputs lives in the wrapper). Writes the ascending
  /// intersection to `out` and returns its length. `out` must hold
  /// min(na, nb) + kIntersectPad32 elements and must not alias a/b.
  size_t (*intersect_u32)(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb, uint32_t* out);
  /// Phrase-match kernel: keeps every `cand` value c whose shifted witness
  /// c + shift occurs in `span` (both sorted unique u64). Returns the
  /// number kept; `out` needs nc + kIntersectPad64 elements, no aliasing.
  size_t (*intersect_shifted_u64)(const uint64_t* cand, size_t nc,
                                  const uint64_t* span, size_t ns,
                                  uint64_t shift, uint64_t* out);
  /// Emits the set bit positions of a word array in ascending order via
  /// ctz (never tests bits one by one); the AVX2 level additionally skips
  /// all-zero blocks 256 bits at a time. Returns the number of positions
  /// written; `out` must hold 64 * num_words.
  size_t (*bitmap_emit)(const uint64_t* words, size_t num_words,
                        uint32_t* out);
};

/// Vector-block slack the raw intersect kernels may write past their
/// logical result (full-width compressed stores).
inline constexpr size_t kIntersectPad32 = 8;  // one AVX2 8×u32 block
inline constexpr size_t kIntersectPad64 = 4;  // one AVX2 4×u64 block

/// The dispatch table for `level` (QBE_CHECKs support) and the active one.
const KernelOps& KernelOpsFor(KernelLevel level);
const KernelOps& ActiveKernelOps();

namespace kernels {

/// Intersection of two sorted, deduplicated uint32 row sets into `*out`
/// (cleared first; capacity is reused). When one side is ≥16x smaller,
/// gallops — binary-probes the larger side with a shrinking window — which
/// is the shape semijoin reductions and selective-predicate seeds hit
/// constantly; otherwise the dispatched dense merge kernel runs.
void IntersectSortedInto(std::span<const uint32_t> a,
                         std::span<const uint32_t> b,
                         std::vector<uint32_t>* out);

/// In-place variant: *a ∩= b, using *scratch as the output buffer (both
/// vectors keep their capacity — no steady-state allocation).
void IntersectSortedInPlace(std::vector<uint32_t>* a,
                            std::span<const uint32_t> b,
                            std::vector<uint32_t>* scratch);

/// `int` compatibility overloads for the sorted non-negative column-gid
/// lists of ColumnIndex / candidate generation: the bit patterns of
/// non-negative ints order identically to uint32, so they reuse the same
/// kernels.
void IntersectSortedInto(std::span<const int> a, std::span<const int> b,
                         std::vector<int>* out);
void IntersectSortedInPlace(std::vector<int>* a, std::span<const int> b,
                            std::vector<int>* scratch);

/// Phrase positional merge: *cand = {c ∈ cand : c + shift ∈ span}, with
/// *scratch as the output buffer. Gallops when span is ≥16x larger than
/// cand (per-candidate binary probe), dense kernel otherwise — the same
/// adaptive split the CSR phrase matcher has always used.
void IntersectShiftedInPlace(std::vector<uint64_t>* cand,
                             std::span<const uint64_t> span, uint64_t shift,
                             std::vector<uint64_t>* scratch);

/// Semijoin row-bitmap helpers over a uint64-word bitmap sized by
/// BitmapClear. Set/Test are single-instruction inlines (nothing to
/// dispatch); Emit goes through the active kernel table.
inline void BitmapClear(std::vector<uint64_t>* bits, size_t num_rows) {
  bits->assign((num_rows + 63) / 64, 0);
}

inline void BitmapSet(std::vector<uint64_t>* bits, uint32_t row) {
  (*bits)[row >> 6] |= uint64_t{1} << (row & 63);
}

inline bool BitmapTest(const std::vector<uint64_t>& bits, uint32_t row) {
  return (bits[row >> 6] >> (row & 63)) & 1;
}

/// Sets one bit per row; rows need not be sorted or distinct.
void BitmapSetBatch(std::vector<uint64_t>* bits,
                    std::span<const uint32_t> rows);

/// Emits the set rows of `bits` into `*out` in ascending order — the
/// sorted-distinct row set without a sort, O(rows/64 + |set|).
void BitmapEmitInto(const std::vector<uint64_t>& bits,
                    std::vector<uint32_t>* out);

}  // namespace kernels

}  // namespace qbe

#endif  // QBE_SRC_KERNELS_KERNELS_H_
