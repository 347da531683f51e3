#include "labeling/query_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

#include "util/logging.h"
#include "util/serde.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define HOPDB_X86_KERNELS 1
#include <immintrin.h>
#else
#define HOPDB_X86_KERNELS 0
#endif

namespace hopdb {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference. Also the tail finisher of every SIMD variant, so all
// kernels share one definition of the boundary semantics.
// ---------------------------------------------------------------------------

Distance ScalarTailFlat(const uint32_t* ap, const uint32_t* ad, size_t an,
                        const uint32_t* bp, const uint32_t* bd, size_t bn,
                        size_t i, size_t j, Distance best) {
  while (i < an && j < bn) {
    if (ap[i] == bp[j]) {
      const Distance d = SaturatingAdd(ad[i], bd[j]);
      if (d < best) best = d;
      ++i;
      ++j;
    } else if (ap[i] < bp[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

Distance IntersectFlatScalar(const uint32_t* ap, const uint32_t* ad,
                             uint32_t an, const uint32_t* bp,
                             const uint32_t* bd, uint32_t bn) {
  return ScalarTailFlat(ap, ad, an, bp, bd, bn, 0, 0, kInfDistance);
}

Distance ScalarTailEntries(const LabelEntry* a, size_t an,
                           const LabelEntry* b, size_t bn, size_t i, size_t j,
                           Distance best) {
  while (i < an && j < bn) {
    if (a[i].pivot == b[j].pivot) {
      const Distance d = SaturatingAdd(a[i].dist, b[j].dist);
      if (d < best) best = d;
      ++i;
      ++j;
    } else if (a[i].pivot < b[j].pivot) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

Distance IntersectEntriesScalar(const LabelEntry* a, uint32_t an,
                                const LabelEntry* b, uint32_t bn) {
  return ScalarTailEntries(a, an, b, bn, 0, 0, kInfDistance);
}

/// Bounded witness tail: resumes the merge at (i, j), stops at the beta
/// bound, returns on the first common pivot with d1 + d2 <= d. The
/// saturating add makes an overflowing pair a witness exactly when
/// d == kInfDistance — the same semantics the builder's scalar cursor
/// scan has always had.
bool ScalarTailWitness(const uint32_t* ap, const uint32_t* ad, size_t an,
                       const uint32_t* bp, const uint32_t* bd, size_t bn,
                       size_t i, size_t j, VertexId beta, Distance d) {
  while (i < an && j < bn) {
    const uint32_t pa = ap[i];
    const uint32_t pb = bp[j];
    if (pa >= beta || pb >= beta) return false;
    if (pa == pb) {
      if (SaturatingAdd(ad[i], bd[j]) <= d) return true;
      ++i;
      ++j;
    } else if (pa < pb) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

bool HasWitnessFlatScalar(const uint32_t* ap, const uint32_t* ad, uint32_t an,
                          const uint32_t* bp, const uint32_t* bd, uint32_t bn,
                          VertexId beta, Distance d) {
  return ScalarTailWitness(ap, ad, an, bp, bd, bn, 0, 0, beta, d);
}

// ---------------------------------------------------------------------------
// Blocked merge, scalar. The outer loop walks the per-block pivot
// min/max sidecars and advances past a block as soon as its range
// cannot overlap the other side's current block (strict per-slot
// sortedness makes block ranges disjoint and ascending, so a skipped
// block can never match a later block either). Overlapping blocks fall
// back to a bounded two-pointer merge over their real entries. The
// block-advance rule — advance whichever block's maximum real pivot is
// smaller, both on equal — is the same exhaustiveness argument as the
// SIMD all-pairs merge.
// ---------------------------------------------------------------------------

inline uint32_t NumBlocks(uint32_t size) {
  return (size + kLabelBlockEntries - 1) / kLabelBlockEntries;
}

Distance IntersectBlockedScalar(const uint32_t* ap, const uint32_t* ad,
                                const uint32_t* abmin, const uint32_t* abmax,
                                uint32_t an, const uint32_t* bp,
                                const uint32_t* bd, const uint32_t* bbmin,
                                const uint32_t* bbmax, uint32_t bn) {
  const uint32_t nba = NumBlocks(an);
  const uint32_t nbb = NumBlocks(bn);
  Distance best = kInfDistance;
  uint32_t ba = 0, bb = 0;
  while (ba < nba && bb < nbb) {
    const uint32_t amax = abmax[ba];
    const uint32_t bmax = bbmax[bb];
    if (amax < bbmin[bb]) {
      ++ba;
      continue;
    }
    if (bmax < abmin[ba]) {
      ++bb;
      continue;
    }
    const size_t i0 = static_cast<size_t>(ba) * kLabelBlockEntries;
    const size_t j0 = static_cast<size_t>(bb) * kLabelBlockEntries;
    size_t i = i0, j = j0;
    const size_t ie = std::min<size_t>(an, i0 + kLabelBlockEntries);
    const size_t je = std::min<size_t>(bn, j0 + kLabelBlockEntries);
    while (i < ie && j < je) {
      if (ap[i] == bp[j]) {
        const Distance d = SaturatingAdd(ad[i], bd[j]);
        if (d < best) best = d;
        ++i;
        ++j;
      } else if (ap[i] < bp[j]) {
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

// ---------------------------------------------------------------------------
// Compressed-stream merge, scalar — the HLC1 delta-varint payload
// decoded entry-at-a-time into a sorted merge, with the trivial-pivot
// direct hits folded in (the exact semantics CompressedIndex::Query has
// always had). The SIMD variants below decode register-width blocks
// instead but keep the identical match/direct-hit set.
// ---------------------------------------------------------------------------

struct StreamCursor {
  const uint8_t* data;
  size_t pos;
  size_t end;
  /// 1 + previous pivot, so the first entry's gap is pivot + 1 (gap 0
  /// never occurs: pivots strictly increase).
  uint64_t prev = 0;

  bool Next(uint32_t* pivot, uint32_t* dist) {
    if (pos >= end) return false;
    uint64_t gap = 0, d = 0;
    if (!GetVarint64(data, end, &pos, &gap)) return false;
    if (!GetVarint64(data, end, &pos, &d)) return false;
    prev += gap;
    *pivot = static_cast<uint32_t>(prev - 1);
    *dist = static_cast<uint32_t>(d);
    return true;
  }
};

Distance IntersectStreamScalar(const uint8_t* a, size_t a_len,
                               const uint8_t* b, size_t b_len,
                               VertexId direct_a, VertexId direct_b) {
  StreamCursor ca{a, 0, a_len};
  StreamCursor cb{b, 0, b_len};
  Distance best = kInfDistance;
  uint32_t pa = kInvalidVertex, pb = kInvalidVertex;
  uint32_t da = kInfDistance, db = kInfDistance;
  bool va = ca.Next(&pa, &da);
  bool vb = cb.Next(&pb, &db);
  while (va && vb) {
    if (pa == pb) {
      const Distance d = SaturatingAdd(da, db);
      if (d < best) best = d;
      va = ca.Next(&pa, &da);
      vb = cb.Next(&pb, &db);
    } else if (pa < pb) {
      if (pa == direct_a && da < best) best = da;
      va = ca.Next(&pa, &da);
    } else {
      if (pb == direct_b && db < best) best = db;
      vb = cb.Next(&pb, &db);
    }
  }
  for (; va; va = ca.Next(&pa, &da)) {
    if (pa == direct_a && da < best) best = da;
  }
  for (; vb; vb = cb.Next(&pb, &db)) {
    if (pb == direct_b && db < best) best = db;
  }
  return best;
}

/// Register-width decode buffer for the SIMD stream kernels. Unused
/// lanes are padded with 0xFFFFFFFF pivots/dists, which the all-pairs
/// folds treat as inert (label_entry.h).
struct StreamBlock {
  alignas(64) uint32_t p[16];
  alignas(64) uint32_t d[16];
  uint32_t n = 0;
};

/// Decodes up to `width` entries into `blk`, folding any direct-pivot
/// hit into the returned running minimum — every decoded entry passes
/// through here exactly once, so the direct-hit set matches the scalar
/// stream merge's.
inline Distance RefillStream(StreamCursor* cur, StreamBlock* blk,
                             uint32_t width, VertexId direct,
                             Distance best) {
  uint32_t n = 0;
  while (n < width && cur->Next(&blk->p[n], &blk->d[n])) {
    if (blk->p[n] == direct && blk->d[n] < best) best = blk->d[n];
    ++n;
  }
  for (uint32_t k = n; k < width; ++k) {
    blk->p[k] = kInvalidVertex;
    blk->d[k] = kInfDistance;
  }
  blk->n = n;
  return best;
}

constexpr QueryKernel kScalarKernel{
    "scalar",
    &IntersectFlatScalar,
    &IntersectEntriesScalar,
    &HasWitnessFlatScalar,
    &IntersectBlockedScalar,
    &IntersectStreamScalar};

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

__attribute__((target("avx2"))) Distance
IntersectFlatAvx2(const uint32_t* ap, const uint32_t* ad, uint32_t an,
                  const uint32_t* bp, const uint32_t* bd, uint32_t bn) {
  size_t i = 0, j = 0;
  const size_t a_n = an, b_n = bn;
  __m256i best = _mm256_set1_epi32(-1);  // kInfDistance in every lane
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  while (i + 8 <= a_n && j + 8 <= b_n) {
    const uint32_t amax = ap[i + 7];
    const uint32_t bmax = bp[j + 7];
    const __m256i va_p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ap + i));
    const __m256i va_d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ad + i));
    const __m256i vb_p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + j));
    const __m256i vb_d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bd + j));
    best = FoldMatches8(va_p, va_d, vb_p, vb_d, best, rot1);
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  return ScalarTailFlat(ap, ad, a_n, bp, bd, b_n, i, j,
                        HorizontalMinU32(best));
}

/// Deinterleaves 8 consecutive (pivot, dist) entries into one pivot and
/// one distance vector. Both outputs share the same lane permutation
/// (p0 p1 p4 p5 p2 p3 p6 p7), which the all-pairs compare is insensitive
/// to — only pivot/distance lane correspondence matters.
__attribute__((target("avx2"))) inline void
LoadEntries8(const LabelEntry* e, __m256i* pivots, __m256i* dists) {
  const __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(e));
  const __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(e + 4));
  const __m256i s0 = _mm256_shuffle_epi32(lo, _MM_SHUFFLE(3, 1, 2, 0));
  const __m256i s1 = _mm256_shuffle_epi32(hi, _MM_SHUFFLE(3, 1, 2, 0));
  *pivots = _mm256_unpacklo_epi64(s0, s1);
  *dists = _mm256_unpackhi_epi64(s0, s1);
}

__attribute__((target("avx2"))) Distance
IntersectEntriesAvx2(const LabelEntry* a, uint32_t an, const LabelEntry* b,
                     uint32_t bn) {
  size_t i = 0, j = 0;
  const size_t a_n = an, b_n = bn;
  __m256i best = _mm256_set1_epi32(-1);
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  while (i + 8 <= a_n && j + 8 <= b_n) {
    const uint32_t amax = a[i + 7].pivot;
    const uint32_t bmax = b[j + 7].pivot;
    __m256i va_p, va_d, vb_p, vb_d;
    LoadEntries8(a + i, &va_p, &va_d);
    LoadEntries8(b + j, &vb_p, &vb_d);
    best = FoldMatches8(va_p, va_d, vb_p, vb_d, best, rot1);
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  return ScalarTailEntries(a, a_n, b, b_n, i, j, HorizontalMinU32(best));
}

// ---------------------------------------------------------------------------
// Bounded early-exit witness probe, AVX2. The block walk mirrors the
// intersect kernel but (1) stops as soon as either block starts at or
// past the beta bound (strict sortedness makes everything after it
// irrelevant), (2) masks out lanes whose pivot is >= beta, and (3)
// returns on the first lane satisfying d1 + d2 <= d. When d is
// kInfDistance an overflowing sum saturates into a witness, so the
// overflow mask is disabled for that case instead of dropping the lane.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) bool
HasWitnessFlatAvx2(const uint32_t* ap, const uint32_t* ad, uint32_t an,
                   const uint32_t* bp, const uint32_t* bd, uint32_t bn,
                   VertexId beta, Distance d) {
  if (beta == 0) return false;  // no pivot ranks above rank 0
  size_t i = 0, j = 0;
  const size_t a_n = an, b_n = bn;
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  const __m256i beta_m1 = _mm256_set1_epi32(static_cast<int>(beta - 1));
  const __m256i vd = _mm256_set1_epi32(static_cast<int>(d));
  const bool inf_budget = d == kInfDistance;
  while (i + 8 <= a_n && j + 8 <= b_n) {
    if (ap[i] >= beta || bp[j] >= beta) return false;
    const uint32_t amax = ap[i + 7];
    const uint32_t bmax = bp[j + 7];
    const __m256i va_p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ap + i));
    const __m256i va_d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ad + i));
    __m256i vb_p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + j));
    __m256i vb_d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bd + j));
    // va_p < beta per lane (unsigned): min(va_p, beta - 1) == va_p.
    const __m256i a_in_bound =
        _mm256_cmpeq_epi32(_mm256_min_epu32(va_p, beta_m1), va_p);
    __m256i hit = _mm256_setzero_si256();
    for (int r = 0; r < 8; ++r) {
      const __m256i eq = _mm256_cmpeq_epi32(va_p, vb_p);
      const __m256i sum = _mm256_add_epi32(va_d, vb_d);
      const __m256i no_ovf =
          _mm256_cmpeq_epi32(_mm256_max_epu32(sum, va_d), sum);
      // sum <= d (unsigned): min(sum, d) == sum. An overflowed lane
      // saturates to kInfDistance, a witness only when d is infinite.
      const __m256i le_d =
          _mm256_cmpeq_epi32(_mm256_min_epu32(sum, vd), sum);
      __m256i ok = inf_budget ? _mm256_set1_epi32(-1)
                              : _mm256_and_si256(no_ovf, le_d);
      ok = _mm256_and_si256(ok, _mm256_and_si256(eq, a_in_bound));
      hit = _mm256_or_si256(hit, ok);
      vb_p = _mm256_permutevar8x32_epi32(vb_p, rot1);
      vb_d = _mm256_permutevar8x32_epi32(vb_d, rot1);
    }
    if (_mm256_movemask_epi8(hit) != 0) return true;
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  return ScalarTailWitness(ap, ad, a_n, bp, bd, b_n, i, j, beta, d);
}

// ---------------------------------------------------------------------------
// Blocked merge, AVX2: sidecar-driven outer loop, 16x16 all-pairs inner
// fold as a 2x2 tile of 8-lane folds with a cheap sub-block range check
// to skip tiles whose pivot ranges are disjoint. Padding lanes are
// inert, so the fold always runs at full width — no scalar tail at all.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) Distance
IntersectBlockedAvx2(const uint32_t* ap, const uint32_t* ad,
                     const uint32_t* abmin, const uint32_t* abmax,
                     uint32_t an, const uint32_t* bp, const uint32_t* bd,
                     const uint32_t* bbmin, const uint32_t* bbmax,
                     uint32_t bn) {
  const uint32_t nba = NumBlocks(an);
  const uint32_t nbb = NumBlocks(bn);
  __m256i best = _mm256_set1_epi32(-1);
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  uint32_t ba = 0, bb = 0;
  while (ba < nba && bb < nbb) {
    const uint32_t amax = abmax[ba];
    const uint32_t bmax = bbmax[bb];
    if (amax < bbmin[bb]) {
      ++ba;
      continue;
    }
    if (bmax < abmin[ba]) {
      ++bb;
      continue;
    }
    const uint32_t* pa = ap + static_cast<size_t>(ba) * kLabelBlockEntries;
    const uint32_t* da = ad + static_cast<size_t>(ba) * kLabelBlockEntries;
    const uint32_t* pb = bp + static_cast<size_t>(bb) * kLabelBlockEntries;
    const uint32_t* db = bd + static_cast<size_t>(bb) * kLabelBlockEntries;
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
          va_d = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(da + 8 * sa));
          loaded = true;
        }
        const __m256i vb_p = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(pb + 8 * sb));
        const __m256i vb_d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(db + 8 * sb));
        best = FoldMatches8(va_p, va_d, vb_p, vb_d, best, rot1);
      }
    }
    if (amax <= bmax) ++ba;
    if (bmax <= amax) ++bb;
  }
  return HorizontalMinU32(best);
}

// ---------------------------------------------------------------------------
// Compressed-stream merge, AVX2: decode 8-entry blocks per side into
// stack buffers (direct hits folded at decode time), then run the same
// all-pairs fold/advance scheme as the flat kernel. Partial end blocks
// are sentinel-padded, so the fold needs no tail handling.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) Distance
IntersectStreamAvx2(const uint8_t* a, size_t a_len, const uint8_t* b,
                    size_t b_len, VertexId direct_a, VertexId direct_b) {
  StreamCursor ca{a, 0, a_len};
  StreamCursor cb{b, 0, b_len};
  StreamBlock blk_a, blk_b;
  Distance direct_best = kInfDistance;
  direct_best = RefillStream(&ca, &blk_a, 8, direct_a, direct_best);
  direct_best = RefillStream(&cb, &blk_b, 8, direct_b, direct_best);
  __m256i best = _mm256_set1_epi32(-1);
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  while (blk_a.n > 0 && blk_b.n > 0) {
    const __m256i va_p =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(blk_a.p));
    const __m256i va_d =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(blk_a.d));
    const __m256i vb_p =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(blk_b.p));
    const __m256i vb_d =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(blk_b.d));
    best = FoldMatches8(va_p, va_d, vb_p, vb_d, best, rot1);
    const uint32_t amax = blk_a.p[blk_a.n - 1];
    const uint32_t bmax = blk_b.p[blk_b.n - 1];
    const bool adv_a = amax <= bmax;
    const bool adv_b = bmax <= amax;
    if (adv_a) direct_best = RefillStream(&ca, &blk_a, 8, direct_a,
                                          direct_best);
    if (adv_b) direct_best = RefillStream(&cb, &blk_b, 8, direct_b,
                                          direct_best);
  }
  // One side is exhausted: nothing left to match, but the other side's
  // remaining entries still owe their direct-hit checks (done inside
  // RefillStream).
  while (blk_a.n > 0) {
    direct_best = RefillStream(&ca, &blk_a, 8, direct_a, direct_best);
  }
  while (blk_b.n > 0) {
    direct_best = RefillStream(&cb, &blk_b, 8, direct_b, direct_best);
  }
  return std::min(direct_best, HorizontalMinU32(best));
}

constexpr QueryKernel kAvx2Kernel{
    "avx2",
    &IntersectFlatAvx2,
    &IntersectEntriesAvx2,
    &HasWitnessFlatAvx2,
    &IntersectBlockedAvx2,
    &IntersectStreamAvx2};

// ---------------------------------------------------------------------------
// Blocked all-pairs merge, SSE4.2 (4 lanes). Same scheme with immediate
// lane rotation. The AoS entry point stays scalar: without 256-bit
// registers the deinterleave overhead eats the 4-lane win.
// ---------------------------------------------------------------------------

__attribute__((target("sse4.2"))) Distance
IntersectFlatSse42(const uint32_t* ap, const uint32_t* ad, uint32_t an,
                   const uint32_t* bp, const uint32_t* bd, uint32_t bn) {
  size_t i = 0, j = 0;
  const size_t a_n = an, b_n = bn;
  __m128i best = _mm_set1_epi32(-1);
  while (i + 4 <= a_n && j + 4 <= b_n) {
    const uint32_t amax = ap[i + 3];
    const uint32_t bmax = bp[j + 3];
    const __m128i va_p =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ap + i));
    const __m128i va_d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ad + i));
    __m128i vb_p = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp + j));
    __m128i vb_d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bd + j));
    for (int r = 0; r < 4; ++r) {
      const __m128i eq = _mm_cmpeq_epi32(va_p, vb_p);
      const __m128i sum = _mm_add_epi32(va_d, vb_d);
      const __m128i no_ovf = _mm_cmpeq_epi32(_mm_max_epu32(sum, va_d), sum);
      const __m128i take = _mm_and_si128(eq, no_ovf);
      best = _mm_min_epu32(best, _mm_blendv_epi8(best, sum, take));
      vb_p = _mm_shuffle_epi32(vb_p, _MM_SHUFFLE(0, 3, 2, 1));
      vb_d = _mm_shuffle_epi32(vb_d, _MM_SHUFFLE(0, 3, 2, 1));
    }
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  alignas(16) uint32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), best);
  Distance folded = std::min(std::min(lanes[0], lanes[1]),
                             std::min(lanes[2], lanes[3]));
  return ScalarTailFlat(ap, ad, a_n, bp, bd, b_n, i, j, folded);
}

/// 4-lane witness probe; same masking scheme as the AVX2 variant.
__attribute__((target("sse4.2"))) bool
HasWitnessFlatSse42(const uint32_t* ap, const uint32_t* ad, uint32_t an,
                    const uint32_t* bp, const uint32_t* bd, uint32_t bn,
                    VertexId beta, Distance d) {
  if (beta == 0) return false;
  size_t i = 0, j = 0;
  const size_t a_n = an, b_n = bn;
  const __m128i beta_m1 = _mm_set1_epi32(static_cast<int>(beta - 1));
  const __m128i vd = _mm_set1_epi32(static_cast<int>(d));
  const bool inf_budget = d == kInfDistance;
  while (i + 4 <= a_n && j + 4 <= b_n) {
    if (ap[i] >= beta || bp[j] >= beta) return false;
    const uint32_t amax = ap[i + 3];
    const uint32_t bmax = bp[j + 3];
    const __m128i va_p =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ap + i));
    const __m128i va_d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ad + i));
    __m128i vb_p = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp + j));
    __m128i vb_d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bd + j));
    const __m128i a_in_bound =
        _mm_cmpeq_epi32(_mm_min_epu32(va_p, beta_m1), va_p);
    __m128i hit = _mm_setzero_si128();
    for (int r = 0; r < 4; ++r) {
      const __m128i eq = _mm_cmpeq_epi32(va_p, vb_p);
      const __m128i sum = _mm_add_epi32(va_d, vb_d);
      const __m128i no_ovf = _mm_cmpeq_epi32(_mm_max_epu32(sum, va_d), sum);
      const __m128i le_d = _mm_cmpeq_epi32(_mm_min_epu32(sum, vd), sum);
      __m128i ok = inf_budget ? _mm_set1_epi32(-1)
                              : _mm_and_si128(no_ovf, le_d);
      ok = _mm_and_si128(ok, _mm_and_si128(eq, a_in_bound));
      hit = _mm_or_si128(hit, ok);
      vb_p = _mm_shuffle_epi32(vb_p, _MM_SHUFFLE(0, 3, 2, 1));
      vb_d = _mm_shuffle_epi32(vb_d, _MM_SHUFFLE(0, 3, 2, 1));
    }
    if (_mm_movemask_epi8(hit) != 0) return true;
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  return ScalarTailWitness(ap, ad, a_n, bp, bd, b_n, i, j, beta, d);
}

// Blocked variants, SSE4.2: the sidecar-driven outer loop is the win;
// overlapping block pairs reuse the 4-lane flat kernels over the two
// padded 16-entry spans (padding is inert to both).

__attribute__((target("sse4.2"))) Distance
IntersectBlockedSse42(const uint32_t* ap, const uint32_t* ad,
                      const uint32_t* abmin, const uint32_t* abmax,
                      uint32_t an, const uint32_t* bp, const uint32_t* bd,
                      const uint32_t* bbmin, const uint32_t* bbmax,
                      uint32_t bn) {
  const uint32_t nba = NumBlocks(an);
  const uint32_t nbb = NumBlocks(bn);
  Distance best = kInfDistance;
  uint32_t ba = 0, bb = 0;
  while (ba < nba && bb < nbb) {
    const uint32_t amax = abmax[ba];
    const uint32_t bmax = bbmax[bb];
    if (amax < bbmin[bb]) {
      ++ba;
      continue;
    }
    if (bmax < abmin[ba]) {
      ++bb;
      continue;
    }
    const Distance pair = IntersectFlatSse42(
        ap + static_cast<size_t>(ba) * kLabelBlockEntries,
        ad + static_cast<size_t>(ba) * kLabelBlockEntries, kLabelBlockEntries,
        bp + static_cast<size_t>(bb) * kLabelBlockEntries,
        bd + static_cast<size_t>(bb) * kLabelBlockEntries,
        kLabelBlockEntries);
    if (pair < best) best = pair;
    if (amax <= bmax) ++ba;
    if (bmax <= amax) ++bb;
  }
  return best;
}

constexpr QueryKernel kSse42Kernel{
    "sse4.2",
    &IntersectFlatSse42,
    &IntersectEntriesScalar,
    &HasWitnessFlatSse42,
    &IntersectBlockedSse42,
    &IntersectStreamScalar};

// ---------------------------------------------------------------------------
// AVX-512F kernels (16 lanes): the same all-pairs scheme with mask
// registers — compare masks replace blend arithmetic, and one 16-lane
// fold covers an entire cacheline block, so the blocked merge is a
// single fold per overlapping block pair.
// ---------------------------------------------------------------------------

// gcc 12 expands several AVX-512 intrinsics (permutexvar, reductions)
// through _mm512_undefined_epi32(), whose deliberately-uninitialized
// value trips -W(maybe-)uninitialized under -Werror (GCC PR 105593).
// The lanes are architecturally dead — full-mask ops ignore the
// passthrough operand — so silence the false positive for this section.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("avx512f"))) inline __m512i
FoldMatches16(__m512i va_p, __m512i va_d, __m512i vb_p, __m512i vb_d,
              __m512i best, __m512i rot1) {
  for (int r = 0; r < 16; ++r) {
    const __mmask16 eq = _mm512_cmpeq_epi32_mask(va_p, vb_p);
    const __m512i sum = _mm512_add_epi32(va_d, vb_d);
    const __mmask16 no_ovf = _mm512_cmpge_epu32_mask(sum, va_d);
    best = _mm512_mask_min_epu32(
        best, static_cast<__mmask16>(eq & no_ovf), best, sum);
    vb_p = _mm512_permutexvar_epi32(rot1, vb_p);
    vb_d = _mm512_permutexvar_epi32(rot1, vb_d);
  }
  return best;
}

/// Manual 16-lane horizontal min. gcc's _mm512_reduce_min_epu32 expands
/// through _mm256_undefined_si256 and trips -Werror=uninitialized, so we
/// spill and fold — the compiler vectorizes the fold anyway.
__attribute__((target("avx512f"))) inline Distance
HorizontalMin16(__m512i v) {
  alignas(64) uint32_t lanes[16];
  _mm512_store_si512(lanes, v);
  Distance best = lanes[0];
  for (int k = 1; k < 16; ++k) best = std::min(best, lanes[k]);
  return best;
}

__attribute__((target("avx512f"))) inline __m512i
Rot1Index16() {
  return _mm512_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                           15, 0);
}

__attribute__((target("avx512f"))) Distance
IntersectFlatAvx512(const uint32_t* ap, const uint32_t* ad, uint32_t an,
                    const uint32_t* bp, const uint32_t* bd, uint32_t bn) {
  size_t i = 0, j = 0;
  const size_t a_n = an, b_n = bn;
  __m512i best = _mm512_set1_epi32(-1);
  const __m512i rot1 = Rot1Index16();
  while (i + 16 <= a_n && j + 16 <= b_n) {
    const uint32_t amax = ap[i + 15];
    const uint32_t bmax = bp[j + 15];
    const __m512i va_p = _mm512_loadu_si512(ap + i);
    const __m512i va_d = _mm512_loadu_si512(ad + i);
    const __m512i vb_p = _mm512_loadu_si512(bp + j);
    const __m512i vb_d = _mm512_loadu_si512(bd + j);
    best = FoldMatches16(va_p, va_d, vb_p, vb_d, best, rot1);
    if (amax <= bmax) i += 16;
    if (bmax <= amax) j += 16;
  }
  return ScalarTailFlat(ap, ad, a_n, bp, bd, b_n, i, j,
                        HorizontalMin16(best));
}

/// Deinterleaves 16 consecutive (pivot, dist) entries with one
/// two-source permute per output vector; lanes stay in entry order.
__attribute__((target("avx512f"))) inline void
LoadEntries16(const LabelEntry* e, __m512i* pivots, __m512i* dists) {
  const __m512i lo = _mm512_loadu_si512(e);
  const __m512i hi = _mm512_loadu_si512(e + 8);
  const __m512i idx_p = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                          20, 22, 24, 26, 28, 30);
  const __m512i idx_d = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19,
                                          21, 23, 25, 27, 29, 31);
  *pivots = _mm512_permutex2var_epi32(lo, idx_p, hi);
  *dists = _mm512_permutex2var_epi32(lo, idx_d, hi);
}

__attribute__((target("avx512f"))) Distance
IntersectEntriesAvx512(const LabelEntry* a, uint32_t an, const LabelEntry* b,
                       uint32_t bn) {
  size_t i = 0, j = 0;
  const size_t a_n = an, b_n = bn;
  __m512i best = _mm512_set1_epi32(-1);
  const __m512i rot1 = Rot1Index16();
  while (i + 16 <= a_n && j + 16 <= b_n) {
    const uint32_t amax = a[i + 15].pivot;
    const uint32_t bmax = b[j + 15].pivot;
    __m512i va_p, va_d, vb_p, vb_d;
    LoadEntries16(a + i, &va_p, &va_d);
    LoadEntries16(b + j, &vb_p, &vb_d);
    best = FoldMatches16(va_p, va_d, vb_p, vb_d, best, rot1);
    if (amax <= bmax) i += 16;
    if (bmax <= amax) j += 16;
  }
  return ScalarTailEntries(a, a_n, b, b_n, i, j,
                           HorizontalMin16(best));
}

__attribute__((target("avx512f"))) bool
HasWitnessFlatAvx512(const uint32_t* ap, const uint32_t* ad, uint32_t an,
                     const uint32_t* bp, const uint32_t* bd, uint32_t bn,
                     VertexId beta, Distance d) {
  if (beta == 0) return false;
  size_t i = 0, j = 0;
  const size_t a_n = an, b_n = bn;
  const __m512i rot1 = Rot1Index16();
  const __m512i vbeta = _mm512_set1_epi32(static_cast<int>(beta));
  const __m512i vd = _mm512_set1_epi32(static_cast<int>(d));
  const bool inf_budget = d == kInfDistance;
  while (i + 16 <= a_n && j + 16 <= b_n) {
    if (ap[i] >= beta || bp[j] >= beta) return false;
    const uint32_t amax = ap[i + 15];
    const uint32_t bmax = bp[j + 15];
    const __m512i va_p = _mm512_loadu_si512(ap + i);
    const __m512i va_d = _mm512_loadu_si512(ad + i);
    __m512i vb_p = _mm512_loadu_si512(bp + j);
    __m512i vb_d = _mm512_loadu_si512(bd + j);
    const __mmask16 a_in_bound = _mm512_cmplt_epu32_mask(va_p, vbeta);
    __mmask16 hit = 0;
    for (int r = 0; r < 16; ++r) {
      const __mmask16 eq = _mm512_cmpeq_epi32_mask(va_p, vb_p);
      const __m512i sum = _mm512_add_epi32(va_d, vb_d);
      const __mmask16 no_ovf = _mm512_cmpge_epu32_mask(sum, va_d);
      const __mmask16 le_d = _mm512_cmple_epu32_mask(sum, vd);
      const __mmask16 ok =
          inf_budget ? static_cast<__mmask16>(0xFFFF)
                     : static_cast<__mmask16>(no_ovf & le_d);
      hit = static_cast<__mmask16>(hit | (ok & eq & a_in_bound));
      vb_p = _mm512_permutexvar_epi32(rot1, vb_p);
      vb_d = _mm512_permutexvar_epi32(rot1, vb_d);
    }
    if (hit != 0) return true;
    if (amax <= bmax) i += 16;
    if (bmax <= amax) j += 16;
  }
  return ScalarTailWitness(ap, ad, a_n, bp, bd, b_n, i, j, beta, d);
}

__attribute__((target("avx512f"))) Distance
IntersectBlockedAvx512(const uint32_t* ap, const uint32_t* ad,
                       const uint32_t* abmin, const uint32_t* abmax,
                       uint32_t an, const uint32_t* bp, const uint32_t* bd,
                       const uint32_t* bbmin, const uint32_t* bbmax,
                       uint32_t bn) {
  const uint32_t nba = NumBlocks(an);
  const uint32_t nbb = NumBlocks(bn);
  __m512i best = _mm512_set1_epi32(-1);
  const __m512i rot1 = Rot1Index16();
  uint32_t ba = 0, bb = 0;
  while (ba < nba && bb < nbb) {
    const uint32_t amax = abmax[ba];
    const uint32_t bmax = bbmax[bb];
    if (amax < bbmin[bb]) {
      ++ba;
      continue;
    }
    if (bmax < abmin[ba]) {
      ++bb;
      continue;
    }
    const size_t i0 = static_cast<size_t>(ba) * kLabelBlockEntries;
    const size_t j0 = static_cast<size_t>(bb) * kLabelBlockEntries;
    const __m512i va_p = _mm512_loadu_si512(ap + i0);
    const __m512i va_d = _mm512_loadu_si512(ad + i0);
    const __m512i vb_p = _mm512_loadu_si512(bp + j0);
    const __m512i vb_d = _mm512_loadu_si512(bd + j0);
    best = FoldMatches16(va_p, va_d, vb_p, vb_d, best, rot1);
    if (amax <= bmax) ++ba;
    if (bmax <= amax) ++bb;
  }
  return HorizontalMin16(best);
}

__attribute__((target("avx512f"))) Distance
IntersectStreamAvx512(const uint8_t* a, size_t a_len, const uint8_t* b,
                      size_t b_len, VertexId direct_a, VertexId direct_b) {
  StreamCursor ca{a, 0, a_len};
  StreamCursor cb{b, 0, b_len};
  StreamBlock blk_a, blk_b;
  Distance direct_best = kInfDistance;
  direct_best = RefillStream(&ca, &blk_a, 16, direct_a, direct_best);
  direct_best = RefillStream(&cb, &blk_b, 16, direct_b, direct_best);
  __m512i best = _mm512_set1_epi32(-1);
  const __m512i rot1 = Rot1Index16();
  while (blk_a.n > 0 && blk_b.n > 0) {
    const __m512i va_p = _mm512_load_si512(blk_a.p);
    const __m512i va_d = _mm512_load_si512(blk_a.d);
    const __m512i vb_p = _mm512_load_si512(blk_b.p);
    const __m512i vb_d = _mm512_load_si512(blk_b.d);
    best = FoldMatches16(va_p, va_d, vb_p, vb_d, best, rot1);
    const uint32_t amax = blk_a.p[blk_a.n - 1];
    const uint32_t bmax = blk_b.p[blk_b.n - 1];
    const bool adv_a = amax <= bmax;
    const bool adv_b = bmax <= amax;
    if (adv_a) direct_best = RefillStream(&ca, &blk_a, 16, direct_a,
                                          direct_best);
    if (adv_b) direct_best = RefillStream(&cb, &blk_b, 16, direct_b,
                                          direct_best);
  }
  while (blk_a.n > 0) {
    direct_best = RefillStream(&ca, &blk_a, 16, direct_a, direct_best);
  }
  while (blk_b.n > 0) {
    direct_best = RefillStream(&cb, &blk_b, 16, direct_b, direct_best);
  }
  return std::min(direct_best, HorizontalMin16(best));
}

constexpr QueryKernel kAvx512Kernel{
    "avx512",
    &IntersectFlatAvx512,
    &IntersectEntriesAvx512,
    &HasWitnessFlatAvx512,
    &IntersectBlockedAvx512,
    &IntersectStreamAvx512};

#pragma GCC diagnostic pop

#endif  // HOPDB_X86_KERNELS

std::atomic<const QueryKernel*> g_active_kernel{nullptr};

const QueryKernel* ResolveDefaultKernel() {
  if (const char* env = std::getenv("HOPDB_QUERY_KERNEL");
      env != nullptr && *env != '\0') {
    if (const QueryKernel* forced = FindQueryKernel(env)) return forced;
    HOPDB_LOG(Warning) << "HOPDB_QUERY_KERNEL='" << env
                       << "' unknown or unsupported on this CPU; "
                          "auto-selecting";
  }
#if HOPDB_X86_KERNELS
  // avx512 is deliberately NOT the auto default: on many parts wide-512
  // execution drops the core frequency license, taxing the non-query
  // work sharing the socket. Opt in via HOPDB_QUERY_KERNEL=avx512.
  if (__builtin_cpu_supports("avx2")) return &kAvx2Kernel;
  if (__builtin_cpu_supports("sse4.2")) return &kSse42Kernel;
#endif
  return &kScalarKernel;
}

}  // namespace

std::vector<const QueryKernel*> SupportedQueryKernels() {
  std::vector<const QueryKernel*> kernels{&kScalarKernel};
#if HOPDB_X86_KERNELS
  if (__builtin_cpu_supports("sse4.2")) kernels.push_back(&kSse42Kernel);
  if (__builtin_cpu_supports("avx2")) kernels.push_back(&kAvx2Kernel);
  if (__builtin_cpu_supports("avx512f")) kernels.push_back(&kAvx512Kernel);
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
    // Benign race: concurrent first callers resolve the same default.
    kernel = ResolveDefaultKernel();
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
  if (lo < label.size && label.pivots[lo] == pivot) return label.dists[lo];
  return kInfDistance;
}

Distance QueryFlatHalves(FlatLabelStore::View out_s,
                         FlatLabelStore::View in_t, VertexId s, VertexId t,
                         const QueryKernel& kernel) {
  if (s == t) return 0;
  const bool blocked =
      out_s.block_min != nullptr && in_t.block_min != nullptr;
  Distance best =
      blocked ? kernel.intersect_blocked(
                    out_s.pivots, out_s.dists, out_s.block_min,
                    out_s.block_max, out_s.size, in_t.pivots, in_t.dists,
                    in_t.block_min, in_t.block_max, in_t.size)
              : kernel.intersect_flat(out_s.pivots, out_s.dists, out_s.size,
                                      in_t.pivots, in_t.dists, in_t.size);
  // Implicit trivial pivots: (s, 0) in Lout(s) and (t, 0) in Lin(t).
  const Distance direct_t = LookupPivotFlat(out_s, t);
  if (direct_t < best) best = direct_t;
  const Distance direct_s = LookupPivotFlat(in_t, s);
  if (direct_s < best) best = direct_s;
  return best;
}

}  // namespace hopdb
