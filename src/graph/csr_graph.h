// CsrGraph: the immutable compressed-sparse-row graph all algorithms run on.
//
// Both out-adjacency and in-adjacency are materialized: the labeling rules
// extend paths at either end (Rules 1/2 need in-neighbors, Rules 4/5 need
// out-neighbors), and bidirectional search needs both directions too.
// For undirected graphs the two adjacencies are identical and share storage.
//
// Each adjacency is its |V|+1 offsets and one u32 target lane, sorted by
// target within each vertex. A parallel u32 weight lane exists only when
// some arc weighs other than 1; a unit-weight graph (every unweighted
// graph of the paper's Table 6) holds no weights at all, 4 bytes an arc
// instead of 8. The freeze decides from the arcs it keeps, and
// OutArcs/InArcs yield Arc values in either layout.

#ifndef HOPDB_GRAPH_CSR_GRAPH_H_
#define HOPDB_GRAPH_CSR_GRAPH_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"
#include "util/status.h"

namespace hopdb {

class CsrFreezer;

/// One adjacency arc: target vertex and edge weight. A CSR yields these
/// by value, with weight 1 when it holds no weight lane.
struct Arc {
  VertexId to;
  Distance weight;
};

/// One vertex's arcs, sorted by target: a random-access range of Arc
/// values read from the target lane and, when the graph has one, the
/// weight lane. Valid while its graph lives; its iterators do not point
/// into the range object, so they outlive it.
class ArcRange {
 public:
  class Iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Arc;
    using difference_type = std::ptrdiff_t;
    using reference = Arc;
    using pointer = void;

    Iterator() = default;

    Arc operator*() const { return (*this)[0]; }
    Arc operator[](difference_type k) const {
      return {to_[i_ + k], weight_ == nullptr ? 1 : weight_[i_ + k]};
    }

    Iterator& operator+=(difference_type k) {
      i_ += k;
      return *this;
    }
    Iterator& operator-=(difference_type k) { return *this += -k; }
    Iterator& operator++() { return *this += 1; }
    Iterator& operator--() { return *this -= 1; }
    Iterator operator++(int) { return std::exchange(*this, *this + 1); }
    Iterator operator--(int) { return std::exchange(*this, *this - 1); }
    friend Iterator operator+(Iterator it, difference_type k) {
      return it += k;
    }
    friend Iterator operator+(difference_type k, Iterator it) {
      return it += k;
    }
    friend Iterator operator-(Iterator it, difference_type k) {
      return it -= k;
    }
    friend difference_type operator-(const Iterator& a, const Iterator& b) {
      return a.i_ - b.i_;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.i_ == b.i_;
    }
    friend std::strong_ordering operator<=>(const Iterator& a,
                                            const Iterator& b) {
      return a.i_ <=> b.i_;
    }

   private:
    friend class ArcRange;
    Iterator(const VertexId* to, const Distance* weight, difference_type i)
        : to_(to), weight_(weight), i_(i) {}

    const VertexId* to_ = nullptr;
    const Distance* weight_ = nullptr;  // null: every arc weighs 1
    difference_type i_ = 0;
  };

  /// `size` arcs from `to` and, unless it is null, `weight`.
  ArcRange(const VertexId* to, const Distance* weight, size_t size)
      : to_(to), weight_(weight), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Arc operator[](size_t i) const { return begin()[static_cast<ptrdiff_t>(i)]; }
  Iterator begin() const { return {to_, weight_, 0}; }
  Iterator end() const {
    return {to_, weight_, static_cast<ptrdiff_t>(size_)};
  }
  /// The first `count` arcs.
  ArcRange first(size_t count) const { return {to_, weight_, count}; }

 private:
  const VertexId* to_ = nullptr;
  const Distance* weight_ = nullptr;  // null: every arc weighs 1
  size_t size_ = 0;
};

static_assert(std::random_access_iterator<ArcRange::Iterator>);

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
  /// after EdgeList::Normalize, arc for arc. The weight lanes exist only
  /// when some kept arc weighs other than 1 (see weighted()).
  /// InvalidArgument on an edge (other than a self-loop) with an
  /// endpoint >= num_vertices or a weight outside [1, inf), and when the
  /// second call yields other edges than the first; ResourceExhausted
  /// when its arrays cannot be allocated; for_each_edge's own errors as
  /// they are. O(|V| + |E| log d_max).
  template <typename ForEachEdge>
  static Result<CsrGraph> Freeze(VertexId num_vertices, bool directed,
                                 ForEachEdge&& for_each_edge);

  /// Freezes an edge list, which need not be Normalize()d (see Freeze).
  /// The list is read in place: nothing is copied or sorted. Its
  /// weighted() flag is not read: the arcs decide the layout.
  static Result<CsrGraph> FromEdgeList(const EdgeList& edges);

  VertexId num_vertices() const { return num_vertices_; }
  /// Number of directed arcs for directed graphs; number of undirected
  /// edges for undirected graphs (each stored as two arcs internally).
  uint64_t num_edges() const { return num_edges_; }
  bool directed() const { return directed_; }
  /// Whether the graph holds weight lanes: true exactly when some arc
  /// weighs other than 1, so false means BFS distances are exact.
  bool weighted() const { return !out_.weights.empty(); }

  /// Out-neighbors of u (for undirected graphs: all neighbors).
  ArcRange OutArcs(VertexId u) const { return out_.Arcs(u); }

  /// In-neighbors of u (for undirected graphs: all neighbors).
  ArcRange InArcs(VertexId u) const {
    return (directed_ ? in_ : out_).Arcs(u);
  }

  uint32_t OutDegree(VertexId u) const { return out_.Degree(u); }

  uint32_t InDegree(VertexId u) const {
    return (directed_ ? in_ : out_).Degree(u);
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

  /// In-memory footprint of the CSR arrays: per adjacency, 8 bytes an
  /// offset, 4 an arc, and 4 more an arc with a weight lane.
  uint64_t SizeBytes() const;

  /// Graph size under the paper's accounting (32-bit vertex ids, 8-bit
  /// weights): what the "|G| (MB)" column of Table 6 reports.
  uint64_t PaperSizeBytes() const;

 private:
  friend class CsrFreezer;

  /// One side's arrays: vertex u's arcs are [offsets[u], offsets[u + 1])
  /// of the targets and, when present, of the weights.
  struct Adjacency {
    std::vector<uint64_t> offsets;
    std::vector<VertexId> targets;
    std::vector<Distance> weights;  // empty: every arc weighs 1

    ArcRange Arcs(VertexId u) const {
      const uint64_t begin = offsets[u];
      return {targets.data() + begin,
              weights.empty() ? nullptr : weights.data() + begin,
              offsets[u + 1] - begin};
    }
    uint32_t Degree(VertexId u) const {
      return static_cast<uint32_t>(offsets[u + 1] - offsets[u]);
    }
    uint64_t SizeBytes() const {
      return offsets.size() * sizeof(uint64_t) +
             targets.size() * sizeof(VertexId) +
             weights.size() * sizeof(Distance);
    }
  };

  VertexId num_vertices_ = 0;
  uint64_t num_edges_ = 0;
  bool directed_ = true;
  Adjacency out_;
  Adjacency in_;  // empty when undirected
};

/// CsrGraph::Freeze's state between and after its two passes over the
/// edges; not used on its own.
class CsrFreezer {
 public:
  /// Before pass 1: sizes the |V|-entry cursor arrays.
  Status Start(VertexId num_vertices, bool directed);
  /// Pass 1: counts the arc(s) of one edge and notes a weight other
  /// than 1.
  void Count(VertexId src, VertexId dst, Distance weight) {
    if (src == dst || !Check(src, dst, weight)) return;
    lane_ |= weight != 1;
    ++cursor_out_[src];
    ++(graph_.directed_ ? cursor_in_ : cursor_out_)[dst];
  }
  /// Between the passes: sizes the offsets and targets from the counts,
  /// and the weight lanes only when pass 1 saw a weight other than 1.
  Status StartPlacing();
  /// Pass 2: places the arc(s) of one edge.
  void Place(VertexId src, VertexId dst, Distance weight) {
    if (src == dst || !Check(src, dst, weight)) return;
    Put(&cursor_out_, &graph_.out_, src, dst, weight);
    if (graph_.directed_) {
      Put(&cursor_in_, &graph_.in_, dst, src, weight);
    } else {
      Put(&cursor_out_, &graph_.out_, dst, src, weight);
    }
  }
  /// After pass 2: sorts each adjacency and drops parallel arcs, then
  /// the weight lanes if every kept arc weighs 1.
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
  void Put(std::vector<uint64_t>* cursor, CsrGraph::Adjacency* side,
           VertexId v, VertexId to, Distance weight) {
    uint64_t& at = (*cursor)[v];
    // More arcs than pass 1 counted, or a weight pass 1 did not see.
    if (at == side->offsets[v + 1] || (weight != 1 && !lane_)) {
      changed_ = true;
      return;
    }
    side->targets[at] = to;
    if (lane_) side->weights[at] = weight;
    ++at;
  }
  /// Sorts and dedups one side (see Finish).
  Status FinishSide(const std::vector<uint64_t>& cursor,
                    CsrGraph::Adjacency* side);

  CsrGraph graph_;
  /// Arcs counted per vertex in pass 1, then each vertex's next free
  /// slot in pass 2.
  std::vector<uint64_t> cursor_out_;
  std::vector<uint64_t> cursor_in_;  // empty when undirected
  /// Whether the arcs are placed with weight lanes: pass 1 saw a weight
  /// other than 1.
  bool lane_ = false;
  /// Whether an arc Finish keeps weighs other than 1.
  bool heavy_kept_ = false;
  Status error_;
  bool changed_ = false;
};

template <typename ForEachEdge>
Result<CsrGraph> CsrGraph::Freeze(VertexId num_vertices, bool directed,
                                  ForEachEdge&& for_each_edge) {
  CsrFreezer freezer;
  HOPDB_RETURN_NOT_OK(freezer.Start(num_vertices, directed));
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
