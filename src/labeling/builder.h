// In-memory Hop-Doubling / Hop-Stepping / Hybrid label construction
// (Sections 3 and 5 of the paper).
//
// The builder runs on a *rank-relabeled* graph (internal id == rank, id 0
// = highest degree). Each iteration is a four-phase pipeline, the first
// three parallel over BuildOptions::num_threads (docs/ARCHITECTURE.md,
// "Build pipeline"):
//   1. generate — candidate entries from the entries that survived the
//      previous iteration (`prev`) joined against either all existing
//      labels (Hop-Doubling, the 4 simplified rules of Fig. 6) or single
//      edges (Hop-Stepping, Section 5.1); parallel over chunks of `prev`,
//      in two passes running the same rule code: the first counts
//      candidates per owner, the second writes each into its owner's
//      range of one buffer allocated at the exact count
//      (candidate_partition.h). An iteration thus holds raw × 12 B of
//      candidates plus the survivors, for any thread count.
//   2. dedup — each owner-aligned partition is sorted in place into
//      (owner, pivot, dist) order; candidates are collapsed per
//      (owner, pivot) keeping the smallest distance, and drop when
//      dominated by an existing entry; parallel per partition.
//   3. prune — candidates with a witness through a higher-ranked pivot
//      die (Section 3.3): candidate covering path x⇝y with pivot
//      β = min(x, y) dies iff some w < β has (w,d1) ∈ Lout(x),
//      (w,d2) ∈ Lin(y) with d1+d2 ≤ d. Witness scans run through the
//      bounded early-exit SIMD merge-join of the active query kernel
//      over a frozen flat snapshot of labels ∪ candidates, decisions in
//      parallel (scalar cursor fallback for tiny iterations).
//   4. apply — survivors merge into the labels and inverted lists in
//      candidate order, on one thread: label growth made on worker
//      threads would land in per-thread malloc arenas and raise peak
//      memory with the thread count. Survivors become `prev`.
// The loop ends when no candidate survives — at most DH iterations for
// Stepping (Thm. 6) and 2⌈log DH⌉ for Doubling (Thm. 4).
//
// Per-iteration statistics (candidate counts, pruning counts, per-phase
// times) feed Figure 10's growing/pruning-factor plots and
// bench_build's phase breakdown.

#ifndef HOPDB_LABELING_BUILDER_H_
#define HOPDB_LABELING_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "labeling/two_hop_index.h"
#include "util/status.h"

namespace hopdb {

enum class BuildMode {
  kHopStepping,
  kHopDoubling,
  /// The paper's default: Hop-Stepping for the first
  /// `hybrid_switch_iteration` iterations, then Hop-Doubling (Section
  /// 5.4, "by default ... first 10 iterations").
  kHybrid,
};

/// Static display name ("stepping" / "doubling" / "hybrid"); never
/// nullptr. Thread-safe (pure).
const char* BuildModeName(BuildMode mode);

struct BuildOptions {
  BuildMode mode = BuildMode::kHybrid;
  /// Rule iterations run as Hop-Stepping before switching to Hop-Doubling
  /// in kHybrid mode.
  uint32_t hybrid_switch_iteration = 10;
  /// Safety cap; the theoretical bounds make this unreachable for sane
  /// inputs.
  uint32_t max_iterations = 100000;
  /// Wall-clock budget; 0 disables. Exceeding it aborts the build with
  /// Status::DeadlineExceeded (rendered as "—"/DNF in benches, matching
  /// the paper's 24-hour cutoff).
  double time_budget_seconds = 0;
  /// Candidate-volume cap per iteration; 0 disables. An iteration whose
  /// exact raw count exceeds it aborts with Status::ResourceExhausted
  /// before any candidate memory is allocated (Hop-Doubling on large
  /// graphs can explode; the paper's Table 8 shows exactly this).
  uint64_t max_candidates_per_iteration = 0;
  /// Disables pruning entirely (ablation; reproduces the Figure 5
  /// labeling of Example 1 when false).
  bool prune = true;
  /// When true (default, matching Section 4.2's outer block which holds
  /// both old labels and fresh candidates), pruning witnesses may be this
  /// iteration's deduped candidates as well as old entries. Ablation knob.
  bool prune_with_candidates = true;
  /// Worker threads for the generation, dedup and pruning phases (the
  /// label merge is sequential). The output is bit-identical for every
  /// thread count: generation order only permutes candidates within each
  /// owner's range, which the dedup sort canonicalizes into one global
  /// order, and pruning decisions depend only on the iteration-start
  /// snapshot. 0 means all hardware threads.
  uint32_t num_threads = 1;
};

/// Counters for one rule iteration (Figure 10's raw material).
struct IterationStats {
  uint32_t iteration = 0;        // 1-based rule iterations
  BuildMode mode_used = BuildMode::kHopStepping;
  uint64_t raw_candidates = 0;   // rule outputs before any filtering
  uint64_t deduped_candidates = 0;  // after (owner,pivot) dedup
  uint64_t existing_dropped = 0;    // dominated by an existing entry
  uint64_t pruned = 0;              // killed by a higher-ranked witness
  uint64_t survivors = 0;           // new entries + in-place updates
  uint64_t updates = 0;             // in-place distance improvements
  uint64_t total_entries_after = 0;
  double seconds = 0;
  /// Per-phase wall clock within this iteration (bench_build's
  /// breakdown); generate + dedup + prune + apply ≈ seconds.
  double generate_seconds = 0;
  double dedup_seconds = 0;
  double prune_seconds = 0;
  double apply_seconds = 0;
};

struct BuildStats {
  std::vector<IterationStats> iterations;
  uint32_t num_rule_iterations = 0;
  uint64_t initial_entries = 0;  // one per edge
  double init_seconds = 0;
  double total_seconds = 0;
  /// Largest candidate buffer of any iteration, in entries (12 B each):
  /// the exact raw count of that iteration, which is exactly what the
  /// builder allocates for it.
  uint64_t peak_candidates = 0;

  /// Sum of a per-iteration phase time over all iterations.
  double PhaseSeconds(double IterationStats::* field) const {
    double total = 0;
    for (const IterationStats& it : iterations) total += it.*field;
    return total;
  }
};

struct BuildOutput {
  TwoHopIndex index;
  BuildStats stats;
};

/// Builds a 2-hop index for `ranked_graph`, which must already be
/// relabeled so that internal id == rank (see RelabelByRank). Returns the
/// index over internal ids (flat query mirror included).
///
/// Blocking and CPU-bound: at most DH rule iterations for Hop-Stepping
/// and 2⌈log DH⌉ for Hop-Doubling (DH = hop-diameter), each iteration
/// roughly linear in candidate volume. Deterministic — bit-identical
/// output for any options.num_threads. Fails with DeadlineExceeded when
/// time_budget_seconds is exceeded and ResourceExhausted when an
/// iteration tops max_candidates_per_iteration; the graph is only read.
/// Reentrant: independent builds may run concurrently on different
/// graphs.
Result<BuildOutput> BuildHopLabeling(const CsrGraph& ranked_graph,
                                     const BuildOptions& options = {});

}  // namespace hopdb

#endif  // HOPDB_LABELING_BUILDER_H_
