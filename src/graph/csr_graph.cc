#include "graph/csr_graph.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace hopdb {

namespace {

/// Runs `allocate`, answering an array the process cannot hold with
/// ResourceExhausted instead of an abort.
template <typename Allocate>
Status Allocating(Allocate&& allocate) {
  try {
    allocate();
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("cannot allocate the graph's arrays");
  }
  return Status::OK();
}

Status ChangedSource() {
  return Status::InvalidArgument(
      "edge source yielded other edges on its second pass");
}

/// Frees what a lane holds past its first `size` entries.
template <typename T>
void ShrinkTo(std::vector<T>* lane, uint64_t size) {
  if (size < lane->size()) {
    lane->resize(size);
    lane->shrink_to_fit();
  }
}

}  // namespace

Status CsrFreezer::Start(VertexId num_vertices, bool directed) {
  graph_.num_vertices_ = num_vertices;
  graph_.directed_ = directed;
  return Allocating([&] {
    cursor_out_.assign(num_vertices, 0);
    if (directed) cursor_in_.assign(num_vertices, 0);
  });
}

void CsrFreezer::Reject(VertexId src, VertexId dst, Distance weight) {
  if (!error_.ok()) return;  // the first bad edge names the error
  const VertexId n = graph_.num_vertices_;
  if (src >= n || dst >= n) {
    error_ = Status::InvalidArgument(
        "edge endpoint out of range: " + std::to_string(src) + "->" +
        std::to_string(dst) + " with |V|=" + std::to_string(n));
  } else {
    error_ = Status::InvalidArgument("edge weight must be in [1, inf), got " +
                                     std::to_string(weight));
  }
}

Status CsrFreezer::StartPlacing() {
  HOPDB_RETURN_NOT_OK(error_);
  // Counts become offsets, and each vertex's cursor its first slot.
  const auto start = [this](std::vector<uint64_t>* cursor,
                            CsrGraph::Adjacency* side) {
    const VertexId n = graph_.num_vertices_;
    side->offsets.assign(static_cast<size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
      side->offsets[v + 1] = side->offsets[v] + (*cursor)[v];
      (*cursor)[v] = side->offsets[v];
    }
    side->targets.resize(side->offsets[n]);
    if (lane_) side->weights.resize(side->offsets[n]);
  };
  return Allocating([&] {
    start(&cursor_out_, &graph_.out_);
    if (graph_.directed_) start(&cursor_in_, &graph_.in_);
  });
}

Status CsrFreezer::FinishSide(const std::vector<uint64_t>& cursor,
                              CsrGraph::Adjacency* side) {
  const VertexId n = graph_.num_vertices_;
  std::vector<VertexId>& to = side->targets;
  std::vector<Distance>& weight = side->weights;
  const auto by_target_then_weight = [](const Arc& a, const Arc& b) {
    return a.to != b.to ? a.to < b.to : a.weight < b.weight;
  };
  std::vector<Arc> arcs;  // one weighted adjacency while it sorts
  uint64_t kept = 0;
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t begin = side->offsets[v];
    const uint64_t end = side->offsets[v + 1];
    if (cursor[v] != end) return ChangedSource();  // fewer arcs than counted
    side->offsets[v] = kept;
    // Sorts the adjacency by (target, weight). Sources that yield each
    // vertex's arcs in order (a sorted edge list, a DynamicGraph) skip
    // the sort.
    if (lane_) {
      const ArcRange placed(to.data() + begin, weight.data() + begin,
                            end - begin);
      if (!std::is_sorted(placed.begin(), placed.end(),
                          by_target_then_weight)) {
        arcs.assign(placed.begin(), placed.end());
        std::sort(arcs.begin(), arcs.end(), by_target_then_weight);
        for (uint64_t i = begin; i < end; ++i) {
          to[i] = arcs[i - begin].to;
          weight[i] = arcs[i - begin].weight;
        }
      }
    } else {
      const auto first = to.begin() + static_cast<ptrdiff_t>(begin);
      const auto last = to.begin() + static_cast<ptrdiff_t>(end);
      if (!std::is_sorted(first, last)) std::sort(first, last);
    }
    // Keeps the first arc per target, the lightest, packing the kept
    // arcs to the front.
    for (uint64_t i = begin; i < end; ++i) {
      if (kept > side->offsets[v] && to[kept - 1] == to[i]) {
        continue;  // a parallel arc, heavier than the one kept
      }
      to[kept] = to[i];
      if (lane_) {
        weight[kept] = weight[i];
        heavy_kept_ |= weight[i] != 1;
      }
      ++kept;
    }
  }
  side->offsets[n] = kept;
  ShrinkTo(&to, kept);
  ShrinkTo(&weight, kept);
  return Status::OK();
}

Result<CsrGraph> CsrFreezer::Finish() {
  HOPDB_RETURN_NOT_OK(error_);
  if (changed_) return ChangedSource();
  HOPDB_RETURN_NOT_OK(FinishSide(cursor_out_, &graph_.out_));
  if (graph_.directed_) {
    HOPDB_RETURN_NOT_OK(FinishSide(cursor_in_, &graph_.in_));
  }
  // Pass 1's heavy weights may all have gone with heavier parallel arcs.
  if (!heavy_kept_) {
    std::vector<Distance>().swap(graph_.out_.weights);
    std::vector<Distance>().swap(graph_.in_.weights);
  }
  // Undirected graphs hold each edge as two arcs.
  graph_.num_edges_ =
      graph_.out_.targets.size() / (graph_.directed_ ? 1 : 2);
  return std::move(graph_);
}

Result<CsrGraph> CsrGraph::FromEdgeList(const EdgeList& edges) {
  return Freeze(edges.num_vertices(), edges.directed(), [&edges](auto&& emit) {
    for (const Edge& e : edges.edges()) emit(e.src, e.dst, e.weight);
    return Status::OK();
  });
}

uint32_t CsrGraph::MaxDegree() const {
  uint32_t best = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    best = std::max(best, Degree(v));
  }
  return best;
}

Distance CsrGraph::ArcWeight(VertexId u, VertexId v) const {
  const ArcRange arcs = OutArcs(u);
  const auto it = std::partition_point(
      arcs.begin(), arcs.end(), [v](const Arc& a) { return a.to < v; });
  if (it != arcs.end() && (*it).to == v) return (*it).weight;
  return kInfDistance;
}

EdgeList CsrGraph::ToEdgeList() const {
  // Add flags the list weighted at the first arc that weighs other than 1.
  EdgeList out(num_vertices_, directed_);
  for (VertexId u = 0; u < num_vertices_; ++u) {
    for (const Arc& a : OutArcs(u)) {
      if (!directed_ && a.to < u) continue;  // emit undirected edges once
      out.Add(u, a.to, a.weight);
    }
  }
  return out;
}

uint64_t CsrGraph::SizeBytes() const {
  return out_.SizeBytes() + in_.SizeBytes();
}

uint64_t CsrGraph::PaperSizeBytes() const {
  // 32-bit per endpoint + 8-bit distance per stored edge.
  return num_edges_ * 9ULL;
}

}  // namespace hopdb
