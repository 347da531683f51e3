// CsrGraph: the immutable compressed-sparse-row graph all algorithms run on.
//
// Both out-adjacency and in-adjacency are materialized: the labeling rules
// extend paths at either end (Rules 1/2 need in-neighbors, Rules 4/5 need
// out-neighbors), and bidirectional search needs both directions too.
// For undirected graphs the two adjacencies are identical and share storage.

#ifndef HOPDB_GRAPH_CSR_GRAPH_H_
#define HOPDB_GRAPH_CSR_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"
#include "util/status.h"

namespace hopdb {

class CsrFreezer;

/// One adjacency arc: target vertex and edge weight.
struct Arc {
  VertexId to;
  Distance weight;
};

/// Immutable CSR graph. Every CSR comes out of one freeze, Freeze;
/// FromEdgeList is its edge-list front end.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// The freeze. for_each_edge(emit) must call emit(src, dst, weight)
  /// once per edge and return a Status; the freeze calls it twice, once
  /// to count each vertex's arcs and once to place them, so no edge
  /// array is held, and both calls must yield the same edges (for an
  /// undirected graph, each edge {u, v} once in either orientation).
  /// The input need not be simple: self-loops are dropped, each
  /// adjacency is sorted by target and only the lightest of parallel
  /// arcs is kept, so the result equals FromEdgeList of the same edges
  /// after EdgeList::Normalize, arc for arc. InvalidArgument on an edge
  /// (other than a self-loop) with an endpoint >= num_vertices or a
  /// weight outside [1, inf), and when the second call yields other
  /// edges than the first; ResourceExhausted when its arrays cannot be
  /// allocated; for_each_edge's own errors as they are. O(|V| + |E| log
  /// d_max).
  template <typename ForEachEdge>
  static Result<CsrGraph> Freeze(VertexId num_vertices, bool directed,
                                 bool weighted, ForEachEdge&& for_each_edge);

  /// Freezes an edge list, which need not be Normalize()d (see Freeze).
  /// The list is read in place: nothing is copied or sorted.
  static Result<CsrGraph> FromEdgeList(const EdgeList& edges);

  VertexId num_vertices() const { return num_vertices_; }
  /// Number of directed arcs for directed graphs; number of undirected
  /// edges for undirected graphs (each stored as two arcs internally).
  uint64_t num_edges() const { return num_edges_; }
  bool directed() const { return directed_; }
  bool weighted() const { return weighted_; }

  /// Out-neighbors of u (for undirected graphs: all neighbors).
  std::span<const Arc> OutArcs(VertexId u) const {
    return {arcs_out_.data() + offsets_out_[u],
            offsets_out_[u + 1] - offsets_out_[u]};
  }

  /// In-neighbors of u (for undirected graphs: all neighbors).
  std::span<const Arc> InArcs(VertexId u) const {
    if (!directed_) return OutArcs(u);
    return {arcs_in_.data() + offsets_in_[u],
            offsets_in_[u + 1] - offsets_in_[u]};
  }

  uint32_t OutDegree(VertexId u) const {
    return static_cast<uint32_t>(offsets_out_[u + 1] - offsets_out_[u]);
  }

  uint32_t InDegree(VertexId u) const {
    if (!directed_) return OutDegree(u);
    return static_cast<uint32_t>(offsets_in_[u + 1] - offsets_in_[u]);
  }

  /// Total degree: in + out for directed graphs, neighbor count for
  /// undirected ones.
  uint32_t Degree(VertexId u) const {
    return directed_ ? OutDegree(u) + InDegree(u) : OutDegree(u);
  }

  uint32_t MaxDegree() const;

  /// Returns the weight of arc u->v, or kInfDistance if absent.
  Distance ArcWeight(VertexId u, VertexId v) const;

  /// Converts back to an edge list (undirected edges emitted once).
  EdgeList ToEdgeList() const;

  /// In-memory footprint of the CSR arrays.
  uint64_t SizeBytes() const;

  /// Graph size under the paper's accounting (32-bit vertex ids, 8-bit
  /// weights): what the "|G| (MB)" column of Table 6 reports.
  uint64_t PaperSizeBytes() const;

 private:
  friend class CsrFreezer;

  VertexId num_vertices_ = 0;
  uint64_t num_edges_ = 0;
  bool directed_ = true;
  bool weighted_ = false;
  std::vector<uint64_t> offsets_out_;
  std::vector<Arc> arcs_out_;
  std::vector<uint64_t> offsets_in_;  // empty when undirected
  std::vector<Arc> arcs_in_;          // empty when undirected
};

/// CsrGraph::Freeze's state between and after its two passes over the
/// edges; not used on its own.
class CsrFreezer {
 public:
  /// Before pass 1: sizes the |V|-entry cursor arrays.
  Status Start(VertexId num_vertices, bool directed, bool weighted);
  /// Pass 1: counts the arc(s) of one edge.
  void Count(VertexId src, VertexId dst, Distance weight) {
    if (src == dst || !Check(src, dst, weight)) return;
    ++cursor_out_[src];
    ++(graph_.directed_ ? cursor_in_ : cursor_out_)[dst];
  }
  /// Between the passes: sizes the offsets and arcs from the counts.
  Status StartPlacing();
  /// Pass 2: places the arc(s) of one edge.
  void Place(VertexId src, VertexId dst, Distance weight) {
    if (src == dst || !Check(src, dst, weight)) return;
    Put(&cursor_out_, graph_.offsets_out_, &graph_.arcs_out_, src,
        Arc{dst, weight});
    if (graph_.directed_) {
      Put(&cursor_in_, graph_.offsets_in_, &graph_.arcs_in_, dst,
          Arc{src, weight});
    } else {
      Put(&cursor_out_, graph_.offsets_out_, &graph_.arcs_out_, dst,
          Arc{src, weight});
    }
  }
  /// After pass 2: sorts each adjacency and drops parallel arcs.
  Result<CsrGraph> Finish();

 private:
  bool Check(VertexId src, VertexId dst, Distance weight) {
    const VertexId n = graph_.num_vertices_;
    if (src < n && dst < n && weight != 0 && weight != kInfDistance) {
      return true;
    }
    Reject(src, dst, weight);
    return false;
  }
  void Reject(VertexId src, VertexId dst, Distance weight);
  void Put(std::vector<uint64_t>* cursor,
           const std::vector<uint64_t>& offsets, std::vector<Arc>* arcs,
           VertexId v, Arc arc) {
    uint64_t& at = (*cursor)[v];
    if (at == offsets[v + 1]) {
      changed_ = true;  // more arcs than pass 1 counted
      return;
    }
    (*arcs)[at++] = arc;
  }

  CsrGraph graph_;
  /// Arcs counted per vertex in pass 1, then each vertex's next free
  /// slot in pass 2.
  std::vector<uint64_t> cursor_out_;
  std::vector<uint64_t> cursor_in_;  // empty when undirected
  Status error_;
  bool changed_ = false;
};

template <typename ForEachEdge>
Result<CsrGraph> CsrGraph::Freeze(VertexId num_vertices, bool directed,
                                  bool weighted, ForEachEdge&& for_each_edge) {
  CsrFreezer freezer;
  HOPDB_RETURN_NOT_OK(freezer.Start(num_vertices, directed, weighted));
  HOPDB_RETURN_NOT_OK(
      for_each_edge([&freezer](VertexId src, VertexId dst, Distance weight) {
        freezer.Count(src, dst, weight);
      }));
  HOPDB_RETURN_NOT_OK(freezer.StartPlacing());
  HOPDB_RETURN_NOT_OK(
      for_each_edge([&freezer](VertexId src, VertexId dst, Distance weight) {
        freezer.Place(src, dst, weight);
      }));
  return freezer.Finish();
}

}  // namespace hopdb

#endif  // HOPDB_GRAPH_CSR_GRAPH_H_
