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
// Two-pointer merge, scalar: the reference semantics. It reads no lane
// past either label's end. Instantiated per distance-lane width.
// ---------------------------------------------------------------------------

template <uint32_t kWidth>
Distance IntersectMergeScalar(const View& a, const View& b) {
  Distance best = kInfDistance;
  uint32_t i = 0, j = 0;
  while (i < a.size && j < b.size) {
    const uint32_t pa = a.pivots[i];
    const uint32_t pb = b.pivots[j];
    if (pa == pb) {
      const Distance d = SaturatingAdd(ReadDistLane(a.dists, kWidth, i),
                                       ReadDistLane(b.dists, kWidth, j));
      if (d < best) best = d;
    }
    i += pa <= pb;
    j += pb <= pa;
  }
  return best;
}

Distance IntersectScalar(const View& a, const View& b) {
  HOPDB_DCHECK_EQ(a.dist_width, b.dist_width);
  return a.dist_width == 1 ? IntersectMergeScalar<1>(a, b)
                           : IntersectMergeScalar<4>(a, b);
}

constexpr QueryKernel kScalarKernel{"scalar", &IntersectScalar};

#if HOPDB_X86_KERNELS

// ---------------------------------------------------------------------------
// All-pairs fold, AVX2 (8 lanes). Per register pair: compare va
// against all 8 rotations of vb; matching lanes contribute d1+d2 to a
// running vector minimum. A lane whose sum wraps uint32 is dropped — the
// scalar semantics saturate it to kInfDistance, which can never win the
// minimum. The block merge then advances the block whose last pivot is
// smaller; strict sortedness makes that exhaustive (Inoue et al.'s
// argument).
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
/// tail byte becomes kInfDistance as a 4-byte tail lane is.
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

/// All-ones in the lanes at or past `real` (the lanes of an 8-lane load
/// that lie past the label's end), zero in the others.
__attribute__((target("avx2"))) inline __m256i PastEnd8(uint32_t real) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(lane,
                            _mm256_set1_epi32(static_cast<int>(real) - 1));
}

// ---------------------------------------------------------------------------
// Block merge, AVX2: an outer loop over 16-entry blocks from each label's
// first entry, bounded by each block's first and last real pivots, and a
// 16x16 all-pairs inner fold as a 2x2 tile of 8-lane folds, with a cheap
// sub-block range check to skip tiles whose pivot ranges are disjoint.
// The fold always runs at full width, with no scalar tail: lanes past a
// label's end get all-ones pivots on a's side and all-ones distances on
// b's, which makes them inert. Instantiated per distance-lane width.
// ---------------------------------------------------------------------------

template <uint32_t kWidth>
__attribute__((target("avx2"))) Distance
IntersectBlockedAvx2(const View& a, const View& b) {
  __m256i best = _mm256_set1_epi32(-1);
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  size_t i = 0, j = 0;  // the current blocks' first entries
  while (i < a.size && j < b.size) {
    const uint32_t* pa = a.pivots + i;
    const uint32_t* pb = b.pivots + j;
    // Real entries in each block: 16, or fewer in a label's last block.
    const auto ra = static_cast<uint32_t>(
        std::min<size_t>(a.size - i, kLabelBlockEntries));
    const auto rb = static_cast<uint32_t>(
        std::min<size_t>(b.size - j, kLabelBlockEntries));
    const uint32_t amax = pa[ra - 1];
    const uint32_t bmax = pb[rb - 1];
    if (amax < pb[0]) {
      i += kLabelBlockEntries;
      continue;
    }
    if (bmax < pa[0]) {
      j += kLabelBlockEntries;
      continue;
    }
    const uint8_t* da = a.dists + i * kWidth;
    const uint8_t* db = b.dists + j * kWidth;
    for (uint32_t sa = 0; sa < ra; sa += 8) {
      const uint32_t alo = pa[sa];
      const uint32_t ahi = pa[std::min(sa + 7, ra - 1)];
      __m256i va_p, va_d;
      bool loaded = false;
      for (uint32_t sb = 0; sb < rb; sb += 8) {
        if (ahi < pb[sb] || pb[std::min(sb + 7, rb - 1)] < alo) continue;
        if (!loaded) {
          va_p = _mm256_or_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa + sa)),
              PastEnd8(ra - sa));
          va_d = LoadDists8<kWidth>(da + sa * kWidth);
          loaded = true;
        }
        const __m256i vb_p =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + sb));
        const __m256i vb_d = _mm256_or_si256(
            LoadDists8<kWidth>(db + sb * kWidth), PastEnd8(rb - sb));
        best = FoldMatches8(va_p, va_d, vb_p, vb_d, best, rot1);
      }
    }
    if (amax <= bmax) i += kLabelBlockEntries;
    if (bmax <= amax) j += kLabelBlockEntries;
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
