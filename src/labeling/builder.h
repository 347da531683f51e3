// In-memory Hop-Doubling / Hop-Stepping / Hybrid label construction
// (Sections 3 and 5 of the paper).
//
// The builder runs on a *rank-relabeled* graph (internal id == rank, id 0
// = highest degree). It holds each label entry once: one label arena per
// side, a page mapping of 8-byte (pivot, dist) entries in owner order
// (an entry's owner is implied by per-owner offsets), in which each
// owner's label is two runs, each sorted by pivot, with disjoint pivots:
// the older entries, then the fresh run the previous iteration added
// (the initial one-entry-per-edge labels, for iteration 1). The fresh
// runs are the paper's `prev`, read in place. Each iteration is a
// three-phase pipeline, the first two parallel over
// BuildOptions::num_threads (docs/ARCHITECTURE.md, "Build pipeline"):
//   1. generate — candidate entries from the fresh runs, joined against
//      either all existing labels (Hop-Doubling, the 4 simplified rules
//      of Fig. 6) or single edges (Hop-Stepping, Section 5.1).
//      Candidates are 8-byte entries too. The rules run in pull form,
//      owner by owner, each range of owners on one worker: every new
//      entry of owner w joins a fresh entry of one of w's sources (a
//      graph neighbour, or a label entry that points at or from w;
//      Hop-Doubling iterations find the latter through per-pivot inverted
//      lists built from the labels when generation starts and freed when
//      it ends). A first pass adds up the fresh-run prefixes each owner
//      will read — the exact raw count, checked against the cap, used to
//      balance the ranges and to size the candidate buffers. One gather
//      pass then collects each owner's candidates, keeps the smallest
//      distance per pivot, drops those w's label already dominates and
//      writes the survivors once, into one buffer per side: a fresh page
//      mapping with room for the raw count, in which each range packs its
//      owners from the raw offset of its first owner, so only the pages
//      written become resident. No raw candidate is ever stored. In a
//      Hop-Stepping iteration in which no candidate can witness another
//      (every candidate distance lies in [min_w + min_prev, max_w +
//      max_prev], so 2 min_w + min_prev > max_w + max_prev rules it out;
//      always so on unit weights), the gather also makes phase 2's
//      decisions for each owner, right after the domination drop, and
//      writes only the candidates that survive pruning; phase 2 then does
//      not run.
//   2. prune — for iterations the gather did not decide (Hop-Doubling,
//      mixed weights, and the ablations prune_with_candidates = false
//      and prune = false). Candidates with a witness through a
//      higher-ranked pivot die (Section 3.3): candidate covering path
//      x⇝y with pivot β = min(x, y) dies iff some w < β has
//      (w,d1) ∈ Lout(x), (w,d2) ∈ Lin(y) with d1+d2 ≤ d, over labels ∪
//      this iteration's candidates. Owner by owner, each range of owners
//      on one worker: the owner's own side is loaded into the worker's
//      |V|-slot distance table, and each of its candidates (w, p, d)
//      probes that table with p's opposite-side label and candidates. Two
//      exact distance bounds skip probes that cannot find a witness. Both
//      sides are decided before either is compacted; compaction then
//      moves each owner's survivors to the front of its own slice, owner
//      by owner on the workers. A decision made in the gather is the same
//      table and the same probes, minus the candidate slices that cannot
//      witness.
//   3. apply — streams each side's arena and its survivors into a fresh
//      arena, owner by owner, on one thread: a label's two runs merged by
//      pivot, minus any pivot a shorter survivor replaces, become its
//      older run, and its survivors its fresh run, the next iteration's
//      `prev`. The pages of the old arena and of the candidate mapping go
//      back to the kernel behind the walk, and both are unmapped at the
//      end. An iteration with no survivors on either side rewrites
//      nothing.
// The loop ends when no candidate survives — at most DH iterations for
// Stepping (Thm. 6) and 2⌈log DH⌉ for Doubling (Thm. 4). The labels are
// then frozen into the index: each store slot merges its owner's two
// runs, and the arena behind the fill goes back to the kernel. Once the
// builder is destroyed, the heap its per-owner and per-worker tables held
// goes back to the kernel too (malloc_trim, glibc only).
//
// Per-iteration statistics (candidate counts, pruning counts, per-phase
// times) feed Figure 10's growing/pruning-factor plots and
// bench_build's phase breakdown. Each iteration also emits one
// `build_iteration` event at info level through util/log.h, which the
// default minimum level (warning) drops.

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

/// Static display name ("Step" / "Double" / "Hybrid"); never nullptr.
/// Thread-safe (pure).
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
  /// graphs can explode; the paper's Table 8 shows exactly this). The raw
  /// count also sizes the address space of the iteration's candidate
  /// mappings, 8 B per raw candidate (79 MB on the benchmark's 50k-vertex
  /// graph), of which only the pages of the candidates stored become
  /// resident: the deduped and filtered ones, or, in an iteration decided
  /// in the gather, only those that survive pruning (the benchmark's
  /// unit-weight Hop-Stepping iterations: about 13 MB there).
  uint64_t max_candidates_per_iteration = 0;
  /// Disables pruning entirely (ablation; reproduces the Figure 5
  /// labeling of Example 1 when false).
  bool prune = true;
  /// When true (default, matching Section 4.2's outer block which holds
  /// both old labels and fresh candidates), pruning witnesses may be this
  /// iteration's deduped candidates as well as old entries; when false,
  /// only old entries witness. Ablation knob. Where no candidate can
  /// witness another (unit-weight Hop-Stepping) both settings build the
  /// same labels, but only true prunes in the gather.
  bool prune_with_candidates = true;
  /// Worker threads for the generation and pruning phases (the label
  /// merge is sequential). The output is bit-identical for every thread
  /// count: each owner's candidates are gathered, ordered and (in an
  /// iteration decided in the gather) pruned by one worker from
  /// iteration-start state, and pruning decisions read only the labels
  /// and the uncompacted candidate lists. 0 means all hardware threads.
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
  /// Always 0: generation dedups each owner's candidates as it gathers
  /// them, and reports that time as generate_seconds. Kept so phase
  /// tables keep their columns.
  double dedup_seconds = 0;
  /// 0 for an iteration decided in the gather (unit-weight Hop-Stepping
  /// with pruning on and prune_with_candidates): its pruning decisions
  /// are counted in generate_seconds.
  double prune_seconds = 0;
  double apply_seconds = 0;
};

struct BuildStats {
  std::vector<IterationStats> iterations;
  uint32_t num_rule_iterations = 0;
  uint64_t initial_entries = 0;  // one per edge
  double init_seconds = 0;
  double total_seconds = 0;
  /// Largest raw candidate count of any iteration (the largest
  /// IterationStats::raw_candidates). The builder never stores raw
  /// candidates: it maps address space for this many 8-byte entries, and
  /// only the pages of the candidates it stores become resident.
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
/// index over internal ids (label store frozen for querying).
///
/// Blocking and CPU-bound: at most DH rule iterations for Hop-Stepping
/// and 2⌈log DH⌉ for Hop-Doubling (DH = hop-diameter), each iteration
/// roughly linear in candidate volume. Deterministic — bit-identical
/// output for any options.num_threads. Fails with DeadlineExceeded when
/// time_budget_seconds is exceeded, and with ResourceExhausted when an
/// iteration tops max_candidates_per_iteration or the kernel refuses a
/// candidate mapping; the graph is only read.
/// Reentrant: independent builds may run concurrently on different
/// graphs.
Result<BuildOutput> BuildHopLabeling(const CsrGraph& ranked_graph,
                                     const BuildOptions& options = {});

}  // namespace hopdb

#endif  // HOPDB_LABELING_BUILDER_H_
