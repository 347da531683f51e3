// hopdb public facade.
//
// HopDbIndex wraps the whole pipeline behind one class that speaks the
// caller's original vertex ids:
//
//   hopdb::EdgeList edges = ...;                 // load or generate
//   auto index = hopdb::HopDbIndex::Build(edges).ValueOrDie();
//   hopdb::Distance d = index.Query(src, dst);   // exact distance
//   index.Save("graph.hopdb").CheckOK();
//
// Build() ranks the vertices (degree order for undirected graphs,
// in-degree x out-degree for directed ones, Section 3.1), relabels the
// graph by rank, runs the Hybrid Hop-Stepping/Hop-Doubling construction
// with pruning (Sections 3 and 5), and keeps the rank permutation so
// queries translate ids transparently.

#ifndef HOPDB_HOPDB_H_
#define HOPDB_HOPDB_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/ranking.h"
#include "labeling/builder.h"
#include "labeling/two_hop_index.h"
#include "util/status.h"

namespace hopdb {

struct HopDbOptions {
  /// Label construction strategy; the default Hybrid matches the paper.
  BuildOptions build;
  /// Vertex ordering; kDegree and kInOutProduct are chosen automatically
  /// from the graph's directedness when left as kAuto.
  enum class Ranking { kAuto, kDegree, kInOutProduct, kCustom } ranking =
      Ranking::kAuto;
  /// Rank order when ranking == kCustom: custom_order[i] is the original
  /// id of the i-th ranked vertex (Section 7's general-graph pathway).
  std::vector<VertexId> custom_order;
};

class HopDbIndex {
 public:
  HopDbIndex() = default;

  /// Builds an index from an edge list, which need not be normalized:
  /// it is frozen in place (CsrGraph::FromEdgeList), never copied or
  /// sorted. Blocking and CPU-bound — runtime is the paper's
  /// O(n h d_max log n) construction (seconds to minutes depending on
  /// |E| and options.build.num_threads); fails with DeadlineExceeded /
  /// ResourceExhausted when the configured budgets are hit. The
  /// unranked graph is freed before labeling starts, which reads only
  /// the rank-relabeled graph.
  static Result<HopDbIndex> Build(const EdgeList& edges,
                                  const HopDbOptions& options = {});

  /// Builds from an already-frozen graph (every CSR is simple: the
  /// freeze drops self-loops and parallel arcs). Otherwise the same
  /// contract as the EdgeList overload. The graph is taken over and freed
  /// once it is relabeled, before labeling starts: move it in, unless the
  /// caller still needs it (an lvalue is copied).
  static Result<HopDbIndex> Build(CsrGraph graph,
                                  const HopDbOptions& options = {});

  /// Exact distance between original vertex ids; kInfDistance if
  /// unreachable. O(|Lout(s)| + |Lin(t)|) — microseconds on scale-free
  /// labels — via the active SIMD query kernel over the flat label
  /// store (labeling/query_kernel.h). Distances are hop counts on
  /// unweighted graphs and weight sums otherwise (same units as the
  /// input edge weights).
  ///
  /// Thread safety: safe for any number of concurrent callers on one
  /// index. The whole read path is const end-to-end and touches no
  /// mutable state — RankMapping::ToInternal (vector read) and
  /// TwoHopIndex::Query, the active kernel's blocked merge over the
  /// immutable store (the kernel is a stateless function table behind
  /// an atomic pointer, resolved on first use). The serving layer
  /// (src/server/) relies on this: worker threads query a shared
  /// snapshot with no locking.
  /// The guarantee holds only while nothing mutates the index — callers
  /// using mutable_label_index() or Load-time construction must publish
  /// the index to readers with an appropriate happens-before edge (e.g.
  /// shared_ptr swap, thread creation), as DistanceServer does.
  Distance Query(VertexId src, VertexId dst) const;

  /// Reachability (directed graphs: src ⇝ dst following arc directions).
  /// 2-hop distance labels double as a reachability index: finite
  /// distance ⇔ a path exists. Same cost and thread-safety as Query.
  bool Reachable(VertexId src, VertexId dst) const {
    return Query(src, dst) != kInfDistance;
  }

  VertexId num_vertices() const { return index_.num_vertices(); }
  bool directed() const { return index_.directed(); }

  /// The underlying 2-hop index (internal/ranked ids). Const access is
  /// safe for concurrent readers; mutable_label_index() is exclusive —
  /// see the Query thread-safety note above.
  const TwoHopIndex& label_index() const { return index_; }
  TwoHopIndex& mutable_label_index() { return index_; }

  /// The rank permutation used for this index. Immutable after Build;
  /// O(1) id translations.
  const RankMapping& ranking() const { return mapping_; }

  /// Construction statistics of the build that produced this index.
  /// Empty (zeroed) for indexes that came from Load rather than Build.
  const BuildStats& build_stats() const { return stats_; }

  /// Average non-trivial label entries per vertex (Table 7's "Avg
  /// |label|").
  double AvgLabelSize() const { return index_.AvgLabelSize(); }

  /// Serialized size under the paper's accounting (Table 6 "Index size").
  uint64_t PaperSizeBytes() const { return index_.PaperSizeBytes(); }

  /// Persists labels and permutation to one HLI1 file, under one
  /// checksum (TwoHopIndex::Save, which replaces `path` atomically and
  /// also deletes a `.perm` sidecar an earlier build left beside it).
  /// O(total label entries) I/O; const and safe to call while other
  /// threads query.
  Status Save(const std::string& path) const;
  /// Reads an HLI1 file and freezes the label store queries read, so a
  /// loaded index serves at full speed. Any other file, including an
  /// HLI1 file from an earlier build, fails with InvalidArgument. The
  /// result is independent of other indexes; publish it to reader
  /// threads with a happens-before edge.
  static Result<HopDbIndex> Load(const std::string& path);

 private:
  /// Labels `ranked` (already relabeled by `mapping`) and adopts the
  /// result.
  static Result<HopDbIndex> BuildRanked(const CsrGraph& ranked,
                                        RankMapping mapping,
                                        const HopDbOptions& options);

  TwoHopIndex index_;   // labels over internal (rank) ids
  RankMapping mapping_; // internal <-> original ids
  BuildStats stats_;
};

/// Shortest-path extraction against a HopDbIndex in ORIGINAL vertex ids.
/// Create() relabels the input graph by the index's rank permutation once;
/// each query then runs the greedy label-descent reconstruction
/// (query/path.h) and translates the result back.
///
/// The index must outlive the querier. For advanced batch workloads
/// (one-to-many, k-nearest) use query/batch.h and query/knn.h directly on
/// index.label_index(), translating ids via index.ranking().
class HopDbPathQuerier {
 public:
  /// `original_graph` must be the graph the index was built from (vertex
  /// count is validated; contents are trusted).
  static Result<HopDbPathQuerier> Create(const HopDbIndex& index,
                                         const CsrGraph& original_graph);

  /// One shortest path from src to dst as original vertex ids; NotFound
  /// when unreachable. O(path length x label size) greedy descent;
  /// const and safe for concurrent callers.
  Result<std::vector<VertexId>> ShortestPath(VertexId src,
                                             VertexId dst) const;

  /// The vertex after src on a shortest path to dst; kInvalidVertex when
  /// src == dst or dst is unreachable. One descent step — O(deg(src) x
  /// label intersection); const and safe for concurrent callers.
  VertexId FirstHop(VertexId src, VertexId dst) const;

 private:
  HopDbPathQuerier(const HopDbIndex* index, CsrGraph ranked_graph)
      : index_(index), ranked_graph_(std::move(ranked_graph)) {}

  const HopDbIndex* index_;
  CsrGraph ranked_graph_;
};

}  // namespace hopdb

#endif  // HOPDB_HOPDB_H_
