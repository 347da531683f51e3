// Incremental label maintenance for dynamic graphs (ROADMAP "Dynamic
// graphs"): repair an existing hop-doubling 2-hop index after edge
// inserts, deletes, and weight changes without rebuilding from scratch.
//
// Two repair procedures, picked by the direction the distance can move:
//
// WEIGHT DECREASES (inserts, reweight-down) use resumed pruned searches
// — the incremental half of dynamic PLL (Akiba et al., WWW'14). A new
// arc a->b never invalidates an existing label entry (every certified
// path still exists; distances only shrink), so repair is purely
// additive: for each hub (h, d) of Lin(a) plus a itself, resume a
// pruned forward Dijkstra from b with start distance d + w, upserting
// (h, nd) into Lin(y) for every reached y > h; prune a vertex u as soon
// as the current labels already certify Query(h, u) <= nd. The mirror
// pass roots at Lout(b)'s hubs plus b and searches backward from a.
// Exactness: on SOME new shortest x->y path take the minimum-id vertex
// u*; the old cover of (a/b, u*) can only be the trivial entry (any
// smaller common pivot would sit on an equally short path, contradicting
// minimality), so u* is a resume root, and the same tie argument shows
// no prune fires along the path — both halves of the (u*, .) cover land.
// Entries for pairs covered elsewhere may keep stale too-large values;
// they remain sound upper bounds (the certified path still exists), and
// every changed pair is re-covered exactly. Cost is proportional to the
// label sizes of the endpoints times the (tiny) unpruned frontier — no
// full-graph searches.
//
// WEIGHT INCREASES (deletes, reweight-up) can kill certified paths, so
// they need the heavyweight affected-set repair:
//
//   1. Affected sets. For a changed arc a->b with old weight w, four
//      single-source searches on the graph WITHOUT the arc characterize
//      every pair whose distance moves:
//        S* = { x : d(x->a) + w < d_without(x->b) }   (strict sources)
//        T* = { y : w + d(b->y) < d_without(a->y) }   (strict targets)
//      Every distance-changed pair lies in S* x T*: an endpoint outside
//      the strict set supplies an equally short arc-free route (shortest
//      paths under positive weights are simple, so d(x->a) and d(b->y)
//      themselves never change). Strictness matters for cost: a label
//      entry certifies a distance VALUE, not one particular path, so a
//      tie pair — which keeps its distance — keeps exact entries and an
//      exact cover sum on its own, even when the specific tied path its
//      cover once followed dies. Empty S* or T* means no value moved
//      and no entry touched — the fast path for redundant updates.
//
//   2. Clean. Since every changed pair lies in S* x T*, the only label
//      entries whose VALUES can be stale are those whose owner and
//      pivot sit on opposite strict sides: pivot-in-T* entries of
//      Lout(x) for x in S*, and pivot-in-S* entries of Lin(y) for y in
//      T*. They are dropped outright — every surviving entry is a
//      sound upper bound, and every surviving entry whose value THIS
//      op moved is gone. Dropping can orphan a pair whose cover ran
//      through a dropped entry; the restore pass re-derives whatever
//      the new graph still needs.
//
//   3. Rank-ordered restore — over R = the owners that actually LOST
//      an entry in the clean (R_out for out-labels, R_in for in-
//      labels), not all of S* ∪ T*. Members are processed in ascending
//      internal id (descending rank-importance); when member v is
//      processed, every smaller-id member is already repaired. Each
//      runs two passes:
//        - Owner restore: one full single-source search gives v's
//          exact new distances. The surviving entries of the cleaned
//          side are first re-verified against them (snapping stale-
//          large decrease-era upper bounds to exact, dropping
//          unreachable pivots), then each missing pivot h < v is added
//          at d(v, h) unless some common pivot below h already
//          certifies that distance (the builder's prune rule, so label
//          minimality is preserved where possible).
//        - Pivot restore: a pruned Dijkstra from v over the new graph
//          — the incremental mirror of one build root — re-derives
//          every (v, *) entry labels on the OPPOSITE side need (a
//          cleaned Lout(v) breaks covers whose out-leg read it, i.e.
//          pivot-v entries in other vertices' in-labels, and vice
//          versa). A vertex u is pruned as soon as a common pivot
//          below v certifies d(v, u) (witness sums never
//          underestimate, so at the tentative distance the certifying
//          cover is exact); otherwise (v, d) is upserted into u's
//          label when u > v and the search keeps expanding.
//      Why R suffices: take a changed-or-orphaned pair (x, y) and the
//      minimum-id vertex u* across all its new shortest paths. Any
//      common pivot z < u* certifying (x, u*) or (u*, y) would lie on
//      a new shortest x->y path, contradicting u*'s minimality — so
//      post-op the ONLY possible cover of (x, y) is the (u*, .) entry
//      pair, and no witness blocks planting it. For the Lout(x) half:
//      either the (u*, .) entry was cleaned (then x ∈ R_out and x's
//      owner restore re-adds it), or it is stale/absent, in which case
//      the pre-op exact cover of (x, u*) ran through some z < u* and
//      at least one of its legs (x->z in Lout(x), z->u* in Lin(u*))
//      changed value this op — a changed leg is a cross-strict entry,
//      so it was cleaned, putting x ∈ R_out (owner restore fixes
//      Lout(x) directly) or u* ∈ R_in (u*'s backward pivot restore
//      reaches x unpruned — a blocking witness at any vertex on a
//      shortest x->u* path would again contradict u*'s minimality —
//      and upserts the exact entry). The Lin(y) half is the mirror
//      image through R_in / R_out. Owners outside R need no work at
//      all. Erasure needs no special pass: a pair newly unreachable
//      had both endpoints strict, and its cleaned entries are simply
//      never re-derived.
//
// The repaired index answers every query identically to a from-scratch
// rebuild on the mutated graph (both are exact; incremental_test.cc
// enforces this differentially on randomized update streams). Repair
// preserves the ORIGINAL vertex ranking: after many updates the degree
// order may drift from the live graph, which costs label size, not
// correctness — UpdateOptions::rebuild_frontier_fraction bounds the
// damage by falling back to a full rebuild (same ranking) when an
// update's affected frontier is a large fraction of the graph.
//
// All ids here are INTERNAL (rank) ids; callers holding original ids
// translate through RankMapping (hopdb.h keeps one per index). The
// serving integration (ADDEDGE/DELEDGE/COMMIT verbs, snapshot publish)
// lives in src/server/server.cc; offline repair in `hopdb_cli update`.

#ifndef HOPDB_LABELING_INCREMENTAL_H_
#define HOPDB_LABELING_INCREMENTAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/types.h"
#include "labeling/builder.h"
#include "labeling/two_hop_index.h"
#include "util/status.h"

namespace hopdb {

/// One edge mutation, in INTERNAL (rank) vertex ids.
struct UpdateOp {
  enum class Kind : uint8_t { kAddEdge, kDelEdge };
  Kind kind = Kind::kAddEdge;
  VertexId u = 0;
  VertexId v = 0;
  /// kAddEdge only. Adding an arc that already exists re-weights it
  /// (repairing in whichever direction the distance moved).
  Distance weight = 1;
};

/// Mutable adjacency the updater maintains alongside the index — the
/// dynamic counterpart of the immutable CsrGraph, in the same internal
/// (rank) id space. Undirected graphs mirror each edge into both
/// endpoint lists and alias in-arcs to out-arcs, like CsrGraph.
class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// Snapshots `graph` (already rank-relabeled) into mutable form.
  static DynamicGraph FromGraph(const CsrGraph& graph);

  VertexId num_vertices() const {
    return static_cast<VertexId>(out_.size());
  }
  bool directed() const { return directed_; }
  uint64_t num_arcs() const { return num_arcs_; }

  std::span<const Arc> OutArcs(VertexId u) const { return out_[u]; }
  std::span<const Arc> InArcs(VertexId u) const {
    return directed_ ? std::span<const Arc>(in_[u])
                     : std::span<const Arc>(out_[u]);
  }

  /// Weight of arc u->v (undirected: edge {u,v}); kInfDistance if absent.
  Distance ArcWeight(VertexId u, VertexId v) const;

  /// Inserts arc u->v (undirected: edge {u,v}) or re-weights it if
  /// present. Returns false when the call was a structural no-op (the
  /// arc already had this weight).
  bool AddArc(VertexId u, VertexId v, Distance weight);

  /// Removes arc u->v; false when absent.
  bool RemoveArc(VertexId u, VertexId v);

  /// Freezes the current adjacency into a CSR through CsrGraph::Freeze,
  /// with no edge list in between: a COMMIT's PATH graph and the
  /// fallback rebuild's input. Same ids as the adjacency; it holds a
  /// weight lane only while some arc weighs other than 1.
  Result<CsrGraph> Freeze() const;

  /// The current adjacency as an edge list, in a deterministic order
  /// (`hopdb_cli update --out-graph` and differential tests), flagged
  /// weighted when some arc weighs other than 1.
  EdgeList ToEdgeList() const;

 private:
  bool directed_ = false;
  uint64_t num_arcs_ = 0;
  std::vector<std::vector<Arc>> out_;
  std::vector<std::vector<Arc>> in_;  // empty when undirected
};

struct UpdateOptions {
  /// Fall back to a full BuildHopLabeling rebuild (keeping the original
  /// ranking) when |S| + |T| exceeds this fraction of |V| for one op.
  /// The incremental repair stays correct at any frontier size — this
  /// is a latency/label-quality valve, not a correctness one. 0 or >1
  /// disables the fallback.
  double rebuild_frontier_fraction = 0.5;
  /// Build options for fallback rebuilds.
  BuildOptions rebuild;
};

struct UpdateStats {
  uint64_t ops_applied = 0;   // ops that changed the graph
  uint64_t ops_noop = 0;      // structurally redundant ops
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t reweights = 0;
  /// Ops whose affected sets were both non-empty (label repair ran).
  uint64_t repairs = 0;
  uint64_t full_rebuilds = 0;  // frontier-valve fallbacks
  uint64_t affected_sources = 0;  // cumulative |S|
  uint64_t affected_targets = 0;  // cumulative |T|
  uint64_t entries_added = 0;
  uint64_t entries_updated = 0;
  uint64_t entries_removed = 0;
  double seconds = 0;  // total Apply time
};

/// Applies edge updates to a (graph, index) pair in lock-step. The graph
/// must be the rank-relabeled graph the index was built over; both are
/// borrowed and mutated in place. The updater is the only holder of
/// editable label vectors: it thaws them from the index's frozen store
/// when it is constructed (O(total entries), a second copy of the
/// labels for the updater's lifetime), repairs them, and Finalize() —
/// which ApplyBatch calls for you — is the only point that freezes them
/// back into the index (two_hop_index.h). The rule: the index is the
/// labels as of the last freeze, so between Apply() and Finalize()
/// every Query, engine, labels() view and Save() answers or writes as
/// before the pending ops.
class IncrementalUpdater {
 public:
  IncrementalUpdater(DynamicGraph* graph, TwoHopIndex* index,
                     const UpdateOptions& options = {});
  // out_/in_ point into this object's own vectors.
  IncrementalUpdater(const IncrementalUpdater&) = delete;
  IncrementalUpdater& operator=(const IncrementalUpdater&) = delete;

  /// Applies one op. Returns true when the graph changed (and the
  /// labels were repaired), false for a structural no-op; fails with
  /// InvalidArgument on self-loops, out-of-range ids, zero weights, or
  /// deleting an absent edge.
  Result<bool> Apply(const UpdateOp& op);

  /// Applies every op in order, then Finalize()s. Fails fast on the
  /// first invalid op (earlier ops stay applied — callers wanting
  /// all-or-nothing semantics validate first; see server COMMIT).
  Status ApplyBatch(std::span<const UpdateOp> ops);

  /// Freezes the repaired vectors into a new store and assigns it to
  /// the index, so reads and Save see every op applied so far. A no-op
  /// when nothing changed since the last freeze; otherwise O(total
  /// entries), and it frees the arenas of every labels() view (and
  /// engine) taken before it — not safe against concurrent readers of
  /// the index.
  void Finalize();

  /// Owners (INTERNAL ids) whose labels changed since construction or
  /// the previous Take — the exact dependency set of a cached point
  /// query: Query(s, t) reads only Lout(s) and Lin(t), so a cached
  /// result is stale iff s's out-label or t's in-label is in here. The
  /// server's COMMIT uses this to carry non-affected result-cache
  /// entries into the snapshot it publishes instead of dropping the
  /// cache wholesale.
  struct TouchedOwners {
    /// True when a fallback rebuild replaced every label; the lists are
    /// empty and callers must treat every owner as touched.
    bool all = false;
    std::vector<VertexId> out;  // Lout(v) changed, ascending
    std::vector<VertexId> in;   // Lin(v) changed (mirrors `out` when
                                // undirected, where the sides alias)
  };
  /// Returns the accumulated set and resets the tracker.
  TouchedOwners TakeTouchedOwners();

  const UpdateStats& stats() const { return stats_; }

 private:
  /// Weight-decrease repair: installs the arc and resumes pruned
  /// searches from the endpoint hub labels (see the header comment).
  void ApplyDecrease(VertexId a, VertexId b, Distance weight, bool insert);

  /// One resumed pruned Dijkstra rooted at `root`, starting from
  /// `start` at distance `start_dist`. backward = false searches
  /// forward and repairs Lin(reached); true searches backward and
  /// repairs Lout(reached).
  void ResumeDecrease(VertexId root, Distance start_dist, VertexId start,
                      bool backward);

  /// Replaces the live vectors with a copy of `index`'s labels (the
  /// constructor's thaw, and the rebuild valve's).
  void Thaw(const TwoHopIndex& index);

  /// d(u->v) under the current live label vectors.
  Distance LiveQuery(VertexId u, VertexId v) const;

  /// Weight-increase owner pass: repairs the cleaned side of v's own
  /// label (out_side = true: Lout(v), candidate pivots h < v at their
  /// exact new d(v->h); false: Lin(v) at d(h->v)) from one full
  /// single-source search — re-verifying surviving entries to exact
  /// values, then adding a missing pivot only when no common pivot
  /// below it already certifies the distance.
  void OwnerRestore(VertexId v, bool out_side);

  /// Weight-increase pivot pass: re-derives v's appearances as a pivot
  /// with a pruned Dijkstra from v (the incremental mirror of one build
  /// root). backward = false searches forward and upserts (v, d) into
  /// Lin(reached); true searches backward into Lout(reached).
  void PivotRestore(VertexId v, bool backward);

  /// True when some common pivot z < beta of Lout(x) / Lin(y) (current,
  /// already-repaired prefix) certifies a path of length <= d.
  bool HasRepairWitness(VertexId x, VertexId y, VertexId beta,
                        Distance d) const;

  /// Entry upsert primitive (operates on the live label vectors).
  void UpsertEntry(std::vector<LabelVector>* side, VertexId owner,
                   VertexId pivot, Distance dist);

  /// Records that `owner`'s label in `side` changed (for
  /// TakeTouchedOwners). Undirected indexes alias the sides, so one
  /// mutation marks both views. O(1) amortized; dedupes via byte marks.
  void MarkTouched(const std::vector<LabelVector>* side, VertexId owner);

  Status RebuildFallback();

  DynamicGraph* graph_;
  TwoHopIndex* index_;
  UpdateOptions options_;
  UpdateStats stats_;
  bool finalized_ = true;  // no Apply since the last Finalize

  // The live label vectors, thawed from the index and frozen back into
  // it by Finalize().
  std::vector<LabelVector> out_labels_;
  std::vector<LabelVector> in_labels_;       // empty when undirected
  std::vector<LabelVector>* out_ = nullptr;  // &out_labels_
  std::vector<LabelVector>* in_ = nullptr;   // == out_ when undirected

  // Per-op repair state, reused across ops.
  std::vector<VertexId> s_;  // strict affected sources S*, ascending
  std::vector<VertexId> t_;  // strict affected targets T*, ascending
  std::vector<VertexId> r_out_;  // owners whose Lout lost entries, ascending
  std::vector<VertexId> r_in_;   // owners whose Lin lost entries, ascending

  // Epoch-stamped dist scratch shared by the resumed decrease searches
  // and the pivot-restore searches (|V|-sized, allocated lazily,
  // O(visited) effective reset per search).
  std::vector<Distance> resume_dist_;
  std::vector<uint64_t> resume_stamp_;
  uint64_t resume_epoch_ = 0;

  // Strict-set membership for the weight-increase clean phase
  // (|V|-sized byte marks, zeroed again before Apply returns).
  std::vector<uint8_t> strict_s_mark_;
  std::vector<uint8_t> strict_t_mark_;

  // Touched-owner tracker (TakeTouchedOwners): byte marks dedupe, the
  // id vectors accumulate across Apply calls until the next Take.
  bool touched_all_ = false;
  std::vector<uint8_t> touched_out_mark_;
  std::vector<uint8_t> touched_in_mark_;
  std::vector<VertexId> touched_out_;
  std::vector<VertexId> touched_in_;
};

/// Parses one text op line: "ADDEDGE u v [w]" / "DELEDGE u v"
/// (case-insensitive; "add"/"del" accepted). Ids are in the caller's
/// space — `hopdb_cli update` feeds original ids through RankMapping.
/// Blank lines and '#' comments yield NotFound (caller skips).
Result<UpdateOp> ParseUpdateOpLine(const std::string& line);

}  // namespace hopdb

#endif  // HOPDB_LABELING_INCREMENTAL_H_
