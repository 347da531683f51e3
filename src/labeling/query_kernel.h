// Vectorized merge-join distance kernels over 2-hop labels.
//
// A point query is min_{w in Lout(s) ∩ Lin(t)} d1 + d2 over two sorted
// pivot arrays — a sorted-merge intersection. The kernels here implement
// that primitive behind one dispatch table:
//
//   scalar   portable two-pointer merge (the reference semantics)
//   avx2     8-lane all-pairs merge (the serving default on x86)
//
// The AVX2 kernel uses block-wise all-pairs comparison (Inoue et al.,
// "Faster Set Intersection with SIMD instructions"): load one block per
// side, compare every lane pairing via lane rotations, fold matching
// d1+d2 sums into a running vector minimum, then advance the block whose
// maximum pivot is smaller. Both kernels return bit-identical results —
// including kInfDistance saturation on d1+d2 overflow — which the test
// suite verifies pairwise on randomized labels.
//
// Three storage forms share those semantics:
//
//   entries  LabelEntry spans (builders, baselines, the disk index)
//   blocked  cacheline-blocked SoA arenas with per-block pivot min/max
//            sidecars (FlatLabelStore, HLI2): the merge consults the
//            tiny sidecar arrays first and skips whole 64-byte blocks
//            whose pivot ranges cannot overlap, touching the arenas only
//            for blocks that can match
//   stream   delta-varint compressed label streams (the HLC1 payload):
//            the kernel decodes fixed-width register blocks on the fly
//            and merges without materializing the label, so compressed
//            indexes answer queries with no decompression pass
//
// The builder does not use these kernels: its rule-(ii) pruning probes a
// per-worker distance table instead (labeling/builder.h).
//
// Kernel selection is runtime CPUID dispatch: the first query picks avx2
// when the CPU supports it and the scalar reference otherwise. Tests and
// benchmarks force a kernel with SetActiveQueryKernel.

#ifndef HOPDB_LABELING_QUERY_KERNEL_H_
#define HOPDB_LABELING_QUERY_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/types.h"
#include "labeling/flat_label_store.h"
#include "labeling/label_entry.h"

namespace hopdb {

/// One query-kernel implementation. Every intersect entry point computes
///   min over common pivots of SaturatingAdd(d1, d2)
/// (kInfDistance when the intersection is empty) and requires strictly
/// ascending pivots on both sides — the TwoHopIndex label invariant.
/// All functions are stateless and reentrant: safe for any number of
/// concurrent callers.
struct QueryKernel {
  const char* name;

  /// Array-of-structs form (LabelEntry spans) — PLL's pruned searches
  /// and the disk index. The AVX2 kernel deinterleaves entry blocks in
  /// registers. O((|a| + |b|) / lanes) block steps plus a scalar tail.
  Distance (*intersect_entries)(const LabelEntry* a, uint32_t a_size,
                                const LabelEntry* b, uint32_t b_size);

  /// Blocked SoA form: merge-join driven by the per-block pivot min/max
  /// sidecars (FlatLabelStore::View::block_min/block_max; one entry per
  /// kLabelBlockEntries-entry block). Non-overlapping blocks are skipped
  /// from the sidecars alone; overlapping blocks are compared all-pairs
  /// at full SIMD width with no scalar tail — both arenas must be
  /// readable through the padded end of the last block, with padding
  /// lanes holding 0xFFFFFFFF (see label_entry.h for why padding is
  /// inert). Bit-identical to intersect_entries on the same labels.
  Distance (*intersect_blocked)(const uint32_t* a_pivots,
                                const uint32_t* a_dists,
                                const uint32_t* a_block_min,
                                const uint32_t* a_block_max, uint32_t a_size,
                                const uint32_t* b_pivots,
                                const uint32_t* b_dists,
                                const uint32_t* b_block_min,
                                const uint32_t* b_block_max, uint32_t b_size);

  /// Delta-varint compressed streams (the HLC1 label payload: per entry
  /// a pivot gap varint — first gap relative to -1 — followed by a
  /// distance varint). Merges the two streams directly, additionally
  /// folding in the distance of any a-entry whose pivot equals
  /// `direct_a` and any b-entry whose pivot equals `direct_b` (the
  /// implicit trivial pivots: callers pass direct_a = t, direct_b = s).
  /// Pass kInvalidVertex to disable a direct probe. The streams must be
  /// well-formed (CompressedIndex validates on construction/load).
  Distance (*intersect_stream)(const uint8_t* a, size_t a_len,
                               const uint8_t* b, size_t b_len,
                               VertexId direct_a, VertexId direct_b);
};

/// Kernels this binary can run on this CPU: the scalar reference first,
/// then avx2 when the CPU supports it.
std::vector<const QueryKernel*> SupportedQueryKernels();

/// Looks up a supported kernel by name; nullptr when unknown or not
/// supported by the running CPU.
const QueryKernel* FindQueryKernel(std::string_view name);

/// The kernel all label queries route through. First call resolves the
/// default (the widest supported kernel); subsequent calls are one
/// atomic load.
const QueryKernel& ActiveQueryKernel();

/// Forces the active kernel (tests/benchmarks). Returns false — leaving
/// the active kernel unchanged — when the name is unknown or unsupported
/// on this CPU. Takes effect for queries issued after the call; do not
/// race it against in-flight queries you need deterministic kernel
/// attribution for.
bool SetActiveQueryKernel(std::string_view name);

/// Binary search for `pivot` in a flat label view; stored distance or
/// kInfDistance when absent. O(log |label|).
Distance LookupPivotFlat(FlatLabelStore::View label, VertexId pivot);

/// QueryLabelHalves (two_hop_index.h) over blocked views: intersection
/// via `kernel.intersect_blocked` plus the two implicit trivial pivots
/// and the s == t case. Both views must carry block sidecars
/// (FlatLabelStore or HLI2 slots).
Distance QueryFlatHalves(FlatLabelStore::View out_s,
                         FlatLabelStore::View in_t, VertexId s, VertexId t,
                         const QueryKernel& kernel);

}  // namespace hopdb

#endif  // HOPDB_LABELING_QUERY_KERNEL_H_
