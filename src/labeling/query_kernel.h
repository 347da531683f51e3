// Vectorized merge-join distance kernel over blocked 2-hop labels.
//
// A point query is min_{w in Lout(s) ∩ Lin(t)} d1 + d2 over two sorted
// pivot arrays — a sorted-merge intersection. Every served read takes
// it over the cacheline-blocked SoA arenas (FlatLabelStore, HLI2),
// through one dispatch table with one entry point, intersect_blocked,
// in two kernels:
//
//   scalar   portable two-pointer merge (the reference semantics)
//   avx2     8-lane all-pairs merge (the serving default on x86)
//
// Both walk the per-block pivot min/max sidecars first and skip whole
// 64-byte blocks whose pivot ranges cannot overlap, touching the arenas
// only for blocks that can match. The AVX2 kernel compares a block pair
// all-pairs (Inoue et al., "Faster Set Intersection with SIMD
// instructions"): load one block per side, compare every lane pairing
// via lane rotations, fold matching d1+d2 sums into a running vector
// minimum, then advance the block whose maximum pivot is smaller. Both
// kernels return bit-identical results — including kInfDistance
// saturation on d1+d2 overflow — which the test suite verifies pairwise
// on randomized labels at both distance-lane widths.
//
// Each kernel body is written once and instantiated per distance-lane
// width (flat_label_store.h): one-byte lanes are sign-extended to u32 as
// they are loaded (int8_t in the scalar body, _mm256_cvtepi8_epi32 in
// the AVX2 one), so the fold, its overflow mask and the padding rules
// see the same u32 values at either width. The entry point picks the
// instance from the views' width.
//
// The other label layout has one scalar merge in the module that owns
// it, with no dispatch (AVX2 lost to scalar there): LabelEntry spans
// (PLL's pruned searches, the disk index, the incremental updater's live
// labels) merge in QueryLabelHalves (two_hop_index.h). The builder uses
// no merge at all: its rule-(ii) pruning probes a per-worker distance
// table instead (labeling/builder.h).
//
// Kernel selection is runtime CPUID dispatch: the first query picks avx2
// when the CPU supports it and the scalar reference otherwise. Tests and
// benchmarks force a kernel with SetActiveQueryKernel.

#ifndef HOPDB_LABELING_QUERY_KERNEL_H_
#define HOPDB_LABELING_QUERY_KERNEL_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/types.h"
#include "labeling/flat_label_store.h"
#include "labeling/label_entry.h"

namespace hopdb {

/// One query-kernel implementation. intersect_blocked computes
///   min over common pivots of SaturatingAdd(d1, d2)
/// (kInfDistance when the intersection is empty) and requires strictly
/// ascending pivots on both sides — the TwoHopIndex label invariant.
/// It is stateless and reentrant: safe for any number of concurrent
/// callers.
struct QueryKernel {
  const char* name;

  /// Blocked SoA form: merge-join driven by the per-block pivot min/max
  /// sidecars (FlatLabelStore::View::block_min/block_max; one entry per
  /// kLabelBlockEntries-entry block). Non-overlapping blocks are skipped
  /// from the sidecars alone; overlapping blocks are compared all-pairs
  /// at full SIMD width with no scalar tail — both views' pivot and
  /// distance lanes must be readable through the padded end of the last
  /// block, with padding lanes all ones (see label_entry.h for why
  /// padding is inert). The two views must have one dist_width, as any
  /// two slots of one label set do. Bit-identical to IntersectLabels on
  /// the same labels.
  Distance (*intersect_blocked)(const FlatLabelStore::View& a,
                                const FlatLabelStore::View& b);
};

/// Kernels this binary can run on this CPU: the scalar reference first,
/// then avx2 when the CPU supports it.
std::vector<const QueryKernel*> SupportedQueryKernels();

/// Looks up a supported kernel by name; nullptr when unknown or not
/// supported by the running CPU.
const QueryKernel* FindQueryKernel(std::string_view name);

/// The kernel every blocked label read routes through. First call
/// resolves the default (the widest supported kernel); subsequent calls
/// are one atomic load.
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
