#include "query/path.h"

#include <string>
#include <vector>

#include "labeling/query_kernel.h"

namespace hopdb {

PathReconstructor::PathReconstructor(const CsrGraph& graph,
                                     const TwoHopIndex& index)
    : graph_(graph), index_(index) {}

Result<std::vector<VertexId>> PathReconstructor::ShortestPath(
    VertexId s, VertexId t) const {
  if (s >= graph_.num_vertices() || t >= graph_.num_vertices()) {
    return Status::InvalidArgument("vertex id out of range");
  }
  Distance remaining = index_.Query(s, t);
  if (remaining == kInfDistance) {
    return Status::NotFound("no path " + std::to_string(s) + " -> " +
                            std::to_string(t));
  }

  std::vector<VertexId> path{s};
  VertexId cur = s;
  while (cur != t) {
    // Any out-neighbor n with w(cur, n) + dist(n, t) == dist(cur, t) lies
    // on a shortest path. Positive arc weights guarantee `remaining`
    // strictly decreases, so the walk terminates in at most dist(s, t)
    // steps.
    VertexId next = kInvalidVertex;
    Distance next_remaining = kInfDistance;
    for (const Arc& a : graph_.OutArcs(cur)) {
      if (a.weight > remaining) continue;
      const Distance via = index_.Query(a.to, t);
      if (SaturatingAdd(via, a.weight) == remaining) {
        next = a.to;
        next_remaining = via;
        break;
      }
    }
    if (next == kInvalidVertex) {
      // The index certified dist(cur, t) == remaining but no neighbor
      // continues the path: the index and graph disagree (corrupted or
      // mismatched inputs).
      return Status::Internal(
          "path reconstruction stuck at vertex " + std::to_string(cur) +
          " (index does not match graph)");
    }
    if (next_remaining >= remaining) {
      return Status::Internal(
          "non-decreasing remaining distance at vertex " +
          std::to_string(cur) + " (zero-weight arc or corrupt index)");
    }
    path.push_back(next);
    cur = next;
    remaining = next_remaining;
  }
  return path;
}

VertexId PathReconstructor::FirstHop(VertexId s, VertexId t) const {
  if (s >= graph_.num_vertices() || t >= graph_.num_vertices() || s == t) {
    return kInvalidVertex;
  }
  const Distance total = index_.Query(s, t);
  if (total == kInfDistance) return kInvalidVertex;
  for (const Arc& a : graph_.OutArcs(s)) {
    if (a.weight > total) continue;
    if (SaturatingAdd(index_.Query(a.to, t), a.weight) == total) return a.to;
  }
  return kInvalidVertex;
}

VertexId PathReconstructor::MeetingPivot(VertexId s, VertexId t) const {
  if (s >= graph_.num_vertices() || t >= graph_.num_vertices()) {
    return kInvalidVertex;
  }
  if (s == t) return s;
  const LabelView out_s = index_.OutLabel(s);
  const LabelView in_t = index_.InLabel(t);

  Distance best = kInfDistance;
  VertexId pivot = kInvalidVertex;
  // Sorted-merge intersection, tracking the argmin. Ties prefer the
  // smaller pivot id, which the increasing merge order gives for free.
  size_t i = 0, j = 0;
  while (i < out_s.size() && j < in_t.size()) {
    if (out_s[i].pivot == in_t[j].pivot) {
      const Distance d = SaturatingAdd(out_s[i].dist, in_t[j].dist);
      if (d < best) {
        best = d;
        pivot = out_s[i].pivot;
      }
      ++i;
      ++j;
    } else if (out_s[i].pivot < in_t[j].pivot) {
      ++i;
    } else {
      ++j;
    }
  }
  // The trivial pivots: t itself in Lout(s), s itself in Lin(t). Either
  // endpoint may be the highest-ranked vertex of the path (Theorem 1's
  // "w can be u or v").
  const Distance via_t = LookupPivotFlat(out_s.flat(), t);
  if (via_t < best || (via_t == best && t < pivot)) {
    best = via_t;
    pivot = t;
  }
  const Distance via_s = LookupPivotFlat(in_t.flat(), s);
  if (via_s < best || (via_s == best && s < pivot)) {
    best = via_s;
    pivot = s;
  }
  return best == kInfDistance ? kInvalidVertex : pivot;
}

Distance PathLength(const CsrGraph& graph, std::span<const VertexId> path) {
  if (path.empty()) return kInfDistance;
  Distance total = 0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const Distance w = graph.ArcWeight(path[i], path[i + 1]);
    if (w == kInfDistance) return kInfDistance;
    total = SaturatingAdd(total, w);
  }
  return total;
}

}  // namespace hopdb
