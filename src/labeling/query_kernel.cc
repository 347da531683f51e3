#include "labeling/query_kernel.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "util/logging.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define HOPDB_X86_KERNELS 1
#include <immintrin.h>
#else
#define HOPDB_X86_KERNELS 0
#endif

namespace hopdb {

namespace {

using View = FlatLabelStore::View;

// ---------------------------------------------------------------------------
// Blocked merge, scalar. The outer loop walks the per-block pivot
// min/max sidecars and advances past a block as soon as its range
// cannot overlap the other side's current block (strict per-slot
// sortedness makes block ranges disjoint and ascending, so a skipped
// block can never match a later block either). Overlapping blocks fall
// back to a bounded two-pointer merge over their real entries. The
// block-advance rule — advance whichever block's maximum real pivot is
// smaller, both on equal — is the same exhaustiveness argument as the
// SIMD all-pairs merge. Instantiated per distance-lane width.
// ---------------------------------------------------------------------------

inline uint32_t NumBlocks(uint32_t size) {
  return (size + kLabelBlockEntries - 1) / kLabelBlockEntries;
}

template <uint32_t kWidth>
Distance IntersectBlockedScalar(const View& a, const View& b) {
  const uint32_t nba = NumBlocks(a.size);
  const uint32_t nbb = NumBlocks(b.size);
  Distance best = kInfDistance;
  uint32_t ba = 0, bb = 0;
  while (ba < nba && bb < nbb) {
    const uint32_t amax = a.block_max[ba];
    const uint32_t bmax = b.block_max[bb];
    if (amax < b.block_min[bb]) {
      ++ba;
      continue;
    }
    if (bmax < a.block_min[ba]) {
      ++bb;
      continue;
    }
    const size_t i0 = static_cast<size_t>(ba) * kLabelBlockEntries;
    const size_t j0 = static_cast<size_t>(bb) * kLabelBlockEntries;
    size_t i = i0, j = j0;
    const size_t ie = std::min<size_t>(a.size, i0 + kLabelBlockEntries);
    const size_t je = std::min<size_t>(b.size, j0 + kLabelBlockEntries);
    while (i < ie && j < je) {
      if (a.pivots[i] == b.pivots[j]) {
        const Distance d = SaturatingAdd(ReadDistLane(a.dists, kWidth, i),
                                         ReadDistLane(b.dists, kWidth, j));
        if (d < best) best = d;
        ++i;
        ++j;
      } else if (a.pivots[i] < b.pivots[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    if (amax <= bmax) ++ba;
    if (bmax <= amax) ++bb;
  }
  return best;
}

Distance IntersectScalar(const View& a, const View& b) {
  HOPDB_DCHECK_EQ(a.dist_width, b.dist_width);
  return a.dist_width == 1 ? IntersectBlockedScalar<1>(a, b)
                           : IntersectBlockedScalar<4>(a, b);
}

constexpr QueryKernel kScalarKernel{"scalar", &IntersectScalar};

#if HOPDB_X86_KERNELS

// ---------------------------------------------------------------------------
// Blocked all-pairs merge, AVX2 (8 lanes). Per block pair: compare va
// against all 8 rotations of vb; matching lanes contribute d1+d2 to a
// running vector minimum. A lane whose sum wraps uint32 is dropped — the
// scalar semantics saturate it to kInfDistance, which can never win the
// minimum. Then advance the block whose maximum (last) pivot is smaller;
// strict sortedness makes that exhaustive (Inoue et al.'s argument).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i
FoldMatches8(__m256i va_p, __m256i va_d, __m256i vb_p, __m256i vb_d,
             __m256i best, __m256i rot1) {
  for (int r = 0; r < 8; ++r) {
    const __m256i eq = _mm256_cmpeq_epi32(va_p, vb_p);
    const __m256i sum = _mm256_add_epi32(va_d, vb_d);
    // No-overflow lanes satisfy sum >= d1 (unsigned).
    const __m256i no_ovf =
        _mm256_cmpeq_epi32(_mm256_max_epu32(sum, va_d), sum);
    const __m256i take = _mm256_and_si256(eq, no_ovf);
    best = _mm256_min_epu32(best, _mm256_blendv_epi8(best, sum, take));
    vb_p = _mm256_permutevar8x32_epi32(vb_p, rot1);
    vb_d = _mm256_permutevar8x32_epi32(vb_d, rot1);
  }
  return best;
}

__attribute__((target("avx2"))) Distance
HorizontalMinU32(__m256i v) {
  alignas(32) uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  Distance best = lanes[0];
  for (int k = 1; k < 8; ++k) best = std::min(best, lanes[k]);
  return best;
}

/// Eight distance lanes as u32: one-byte lanes sign-extend, so the 0xFF
/// padding byte becomes kInfDistance as a 4-byte padding lane is.
template <uint32_t kWidth>
__attribute__((target("avx2"))) inline __m256i LoadDists8(
    const uint8_t* dists) {
  if constexpr (kWidth == 1) {
    return _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(dists)));
  } else {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dists));
  }
}

// ---------------------------------------------------------------------------
// Blocked merge, AVX2: sidecar-driven outer loop, 16x16 all-pairs inner
// fold as a 2x2 tile of 8-lane folds with a cheap sub-block range check
// to skip tiles whose pivot ranges are disjoint. Padding lanes are
// inert, so the fold always runs at full width — no scalar tail at all.
// Instantiated per distance-lane width.
// ---------------------------------------------------------------------------

template <uint32_t kWidth>
__attribute__((target("avx2"))) Distance
IntersectBlockedAvx2(const View& a, const View& b) {
  const uint32_t nba = NumBlocks(a.size);
  const uint32_t nbb = NumBlocks(b.size);
  __m256i best = _mm256_set1_epi32(-1);
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  uint32_t ba = 0, bb = 0;
  while (ba < nba && bb < nbb) {
    const uint32_t amax = a.block_max[ba];
    const uint32_t bmax = b.block_max[bb];
    if (amax < b.block_min[bb]) {
      ++ba;
      continue;
    }
    if (bmax < a.block_min[ba]) {
      ++bb;
      continue;
    }
    const size_t i0 = static_cast<size_t>(ba) * kLabelBlockEntries;
    const size_t j0 = static_cast<size_t>(bb) * kLabelBlockEntries;
    const uint32_t* pa = a.pivots + i0;
    const uint8_t* da = a.dists + i0 * kWidth;
    const uint32_t* pb = b.pivots + j0;
    const uint8_t* db = b.dists + j0 * kWidth;
    for (int sa = 0; sa < 2; ++sa) {
      const uint32_t alo = pa[8 * sa];
      const uint32_t ahi = pa[8 * sa + 7];
      __m256i va_p, va_d;
      bool loaded = false;
      for (int sb = 0; sb < 2; ++sb) {
        if (ahi < pb[8 * sb] || pb[8 * sb + 7] < alo) continue;
        if (!loaded) {
          va_p = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(pa + 8 * sa));
          va_d = LoadDists8<kWidth>(da + 8 * sa * kWidth);
          loaded = true;
        }
        const __m256i vb_p = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(pb + 8 * sb));
        const __m256i vb_d = LoadDists8<kWidth>(db + 8 * sb * kWidth);
        best = FoldMatches8(va_p, va_d, vb_p, vb_d, best, rot1);
      }
    }
    if (amax <= bmax) ++ba;
    if (bmax <= amax) ++bb;
  }
  return HorizontalMinU32(best);
}

Distance IntersectAvx2(const View& a, const View& b) {
  HOPDB_DCHECK_EQ(a.dist_width, b.dist_width);
  return a.dist_width == 1 ? IntersectBlockedAvx2<1>(a, b)
                           : IntersectBlockedAvx2<4>(a, b);
}

constexpr QueryKernel kAvx2Kernel{"avx2", &IntersectAvx2};

#endif  // HOPDB_X86_KERNELS

std::atomic<const QueryKernel*> g_active_kernel{nullptr};

}  // namespace

std::vector<const QueryKernel*> SupportedQueryKernels() {
  std::vector<const QueryKernel*> kernels{&kScalarKernel};
#if HOPDB_X86_KERNELS
  if (__builtin_cpu_supports("avx2")) kernels.push_back(&kAvx2Kernel);
#endif
  return kernels;
}

const QueryKernel* FindQueryKernel(std::string_view name) {
  for (const QueryKernel* kernel : SupportedQueryKernels()) {
    if (name == kernel->name) return kernel;
  }
  return nullptr;
}

const QueryKernel& ActiveQueryKernel() {
  const QueryKernel* kernel = g_active_kernel.load(std::memory_order_acquire);
  if (kernel == nullptr) {
    // Benign race: concurrent first callers resolve the same default,
    // the widest supported kernel.
    kernel = SupportedQueryKernels().back();
    g_active_kernel.store(kernel, std::memory_order_release);
  }
  return *kernel;
}

bool SetActiveQueryKernel(std::string_view name) {
  const QueryKernel* kernel = FindQueryKernel(name);
  if (kernel == nullptr) return false;
  g_active_kernel.store(kernel, std::memory_order_release);
  return true;
}

Distance LookupPivotFlat(FlatLabelStore::View label, VertexId pivot) {
  size_t lo = 0, hi = label.size;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (label.pivots[mid] < pivot) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < label.size && label.pivots[lo] == pivot) return label.dist(lo);
  return kInfDistance;
}

Distance QueryFlatHalves(FlatLabelStore::View out_s,
                         FlatLabelStore::View in_t, VertexId s, VertexId t,
                         const QueryKernel& kernel) {
  if (s == t) return 0;
  Distance best = kernel.intersect_blocked(out_s, in_t);
  // Implicit trivial pivots: (s, 0) in Lout(s) and (t, 0) in Lin(t).
  const Distance direct_t = LookupPivotFlat(out_s, t);
  if (direct_t < best) best = direct_t;
  const Distance direct_s = LookupPivotFlat(in_t, s);
  if (direct_s < best) best = direct_s;
  return best;
}

}  // namespace hopdb
