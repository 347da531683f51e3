// Vectorized merge-join distance kernel over packed 2-hop labels.
//
// A point query is min_{w in Lout(s) ∩ Lin(t)} d1 + d2 over two sorted
// pivot arrays — a sorted-merge intersection. Every served read takes
// it over the packed SoA arenas (FlatLabelStore, HLI2), through one
// dispatch table with one entry point, intersect_blocked, in two
// kernels:
//
//   scalar   portable two-pointer merge (the reference semantics)
//   avx2     16x16 all-pairs block merge (the serving default on x86)
//
// The AVX2 kernel walks each label in 16-entry blocks from its first
// entry and reads a block's pivot range from its own first and last
// real pivots, skipping a block whose range cannot overlap the other
// side's current block. It compares an overlapping block pair all-pairs
// (Inoue et al., "Faster Set Intersection with SIMD instructions") as a
// 2x2 tile of 8-lane folds: load 8 lanes per side, compare every lane
// pairing via lane rotations, fold matching d1+d2 sums into a running
// vector minimum, then advance the block whose last pivot is smaller.
// In the block that holds a label's end, the lanes past that end hold
// the next slot's entries (or the arena's all-ones tail): the kernel
// forces them inert before the fold, to all-ones pivots on the left
// side (no real pivot is 0xFFFFFFFF) and to all-ones distances on the
// right (any sum with one overflows or stays kInfDistance). Both
// kernels return bit-identical results — including kInfDistance
// saturation on d1+d2 overflow — which the test suite verifies pairwise
// on randomized labels at both distance-lane widths.
//
// Each kernel body is written once and instantiated per distance-lane
// width (flat_label_store.h): one-byte lanes are sign-extended to u32 as
// they are loaded (int8_t in the scalar body, _mm256_cvtepi8_epi32 in
// the AVX2 one), so the fold, its overflow mask and the lane masks see
// the same u32 values at either width. The entry point picks the
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

  /// Packed SoA form. Both views' pivot and distance lanes must be
  /// readable for kLabelBlockEntries lanes past their ends (the next
  /// slot's entries or the arena's tail, as in every FlatLabelStore and
  /// HLI2 slot); what those lanes hold never changes the result. The two
  /// views must have one dist_width, as any two slots of one label set
  /// do. Bit-identical to IntersectLabels on the same labels.
  Distance (*intersect_blocked)(const FlatLabelStore::View& a,
                                const FlatLabelStore::View& b);
};

/// Kernels this binary can run on this CPU: the scalar reference first,
/// then avx2 when the CPU supports it.
std::vector<const QueryKernel*> SupportedQueryKernels();

/// Looks up a supported kernel by name; nullptr when unknown or not
/// supported by the running CPU.
const QueryKernel* FindQueryKernel(std::string_view name);

/// The kernel every store or HLI2 label read routes through. First call
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

/// QueryLabelHalves (two_hop_index.h) over packed views: intersection
/// via `kernel.intersect_blocked` plus the two implicit trivial pivots
/// and the s == t case. Both views must be store or HLI2 slots (or
/// suffixes of them), readable past their ends as intersect_blocked
/// requires.
Distance QueryFlatHalves(FlatLabelStore::View out_s,
                         FlatLabelStore::View in_t, VertexId s, VertexId t,
                         const QueryKernel& kernel);

}  // namespace hopdb

#endif  // HOPDB_LABELING_QUERY_KERNEL_H_
