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

}  // namespace

Status CsrFreezer::Start(VertexId num_vertices, bool directed,
                         bool weighted) {
  graph_.num_vertices_ = num_vertices;
  graph_.directed_ = directed;
  graph_.weighted_ = weighted;
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
  const auto start = [n = graph_.num_vertices_](
                         std::vector<uint64_t>* cursor,
                         std::vector<uint64_t>* offsets,
                         std::vector<Arc>* arcs) {
    offsets->assign(static_cast<size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
      (*offsets)[v + 1] = (*offsets)[v] + (*cursor)[v];
      (*cursor)[v] = (*offsets)[v];
    }
    arcs->resize((*offsets)[n]);
  };
  return Allocating([&] {
    start(&cursor_out_, &graph_.offsets_out_, &graph_.arcs_out_);
    if (graph_.directed_) {
      start(&cursor_in_, &graph_.offsets_in_, &graph_.arcs_in_);
    }
  });
}

Result<CsrGraph> CsrFreezer::Finish() {
  HOPDB_RETURN_NOT_OK(error_);
  const auto changed = [] {
    return Status::InvalidArgument(
        "edge source yielded other edges on its second pass");
  };
  if (changed_) return changed();
  const VertexId n = graph_.num_vertices_;
  const auto less = [](const Arc& a, const Arc& b) {
    return a.to != b.to ? a.to < b.to : a.weight < b.weight;
  };
  // Sorts each adjacency by (target, weight) and keeps the first arc per
  // target, the lightest, packing the kept arcs to the front.
  const auto finish = [&](const std::vector<uint64_t>& cursor,
                          std::vector<uint64_t>* offsets,
                          std::vector<Arc>* arcs) -> Status {
    uint64_t kept = 0;
    for (VertexId v = 0; v < n; ++v) {
      const uint64_t begin = (*offsets)[v];
      const uint64_t end = (*offsets)[v + 1];
      if (cursor[v] != end) return changed();  // fewer arcs than counted
      (*offsets)[v] = kept;
      const auto first = arcs->begin() + static_cast<ptrdiff_t>(begin);
      const auto last = arcs->begin() + static_cast<ptrdiff_t>(end);
      // Sources that yield each vertex's arcs in order (a sorted edge
      // list, a DynamicGraph) skip the sort.
      if (!std::is_sorted(first, last, less)) std::sort(first, last, less);
      for (uint64_t i = begin; i < end; ++i) {
        if (kept > (*offsets)[v] && (*arcs)[kept - 1].to == (*arcs)[i].to) {
          continue;  // a parallel arc, heavier than the one kept
        }
        (*arcs)[kept++] = (*arcs)[i];
      }
    }
    (*offsets)[n] = kept;
    if (kept < arcs->size()) {
      arcs->resize(kept);
      arcs->shrink_to_fit();
    }
    return Status::OK();
  };
  HOPDB_RETURN_NOT_OK(
      finish(cursor_out_, &graph_.offsets_out_, &graph_.arcs_out_));
  if (graph_.directed_) {
    HOPDB_RETURN_NOT_OK(
        finish(cursor_in_, &graph_.offsets_in_, &graph_.arcs_in_));
  }
  // Undirected graphs hold each edge as two arcs.
  graph_.num_edges_ = graph_.arcs_out_.size() / (graph_.directed_ ? 1 : 2);
  return std::move(graph_);
}

Result<CsrGraph> CsrGraph::FromEdgeList(const EdgeList& edges) {
  return Freeze(edges.num_vertices(), edges.directed(), edges.weighted(),
                [&edges](auto&& emit) {
                  for (const Edge& e : edges.edges()) {
                    emit(e.src, e.dst, e.weight);
                  }
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
  auto arcs = OutArcs(u);
  auto it = std::lower_bound(
      arcs.begin(), arcs.end(), v,
      [](const Arc& a, VertexId target) { return a.to < target; });
  if (it != arcs.end() && it->to == v) return it->weight;
  return kInfDistance;
}

EdgeList CsrGraph::ToEdgeList() const {
  EdgeList out(num_vertices_, directed_);
  out.set_weighted(weighted_);
  for (VertexId u = 0; u < num_vertices_; ++u) {
    for (const Arc& a : OutArcs(u)) {
      if (!directed_ && a.to < u) continue;  // emit undirected edges once
      out.Add(u, a.to, a.weight);
    }
  }
  return out;
}

uint64_t CsrGraph::SizeBytes() const {
  return offsets_out_.size() * sizeof(uint64_t) +
         arcs_out_.size() * sizeof(Arc) +
         offsets_in_.size() * sizeof(uint64_t) + arcs_in_.size() * sizeof(Arc);
}

uint64_t CsrGraph::PaperSizeBytes() const {
  // 32-bit per endpoint + 8-bit distance per stored edge.
  return num_edges_ * 9ULL;
}

}  // namespace hopdb
