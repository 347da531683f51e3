#include "graph/ranking.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace hopdb {

RankMapping ComputeRanking(const CsrGraph& graph, RankingPolicy policy) {
  const VertexId n = graph.num_vertices();
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0u);

  if (policy != RankingPolicy::kIdentity) {
    // Primary key per vertex under the chosen policy.
    std::vector<uint64_t> key(n);
    std::vector<uint64_t> tiebreak(n);
    for (VertexId v = 0; v < n; ++v) {
      uint64_t in = graph.InDegree(v);
      uint64_t out = graph.OutDegree(v);
      switch (policy) {
        case RankingPolicy::kDegree:
          key[v] = graph.Degree(v);
          break;
        case RankingPolicy::kInOutProduct:
          key[v] = (in + 1) * (out + 1);
          break;
        case RankingPolicy::kIdentity:
          break;
      }
      tiebreak[v] = in + out;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](VertexId a, VertexId b) {
                       if (key[a] != key[b]) return key[a] > key[b];
                       if (tiebreak[a] != tiebreak[b]) {
                         return tiebreak[a] > tiebreak[b];
                       }
                       return a < b;
                     });
  }
  return RankingFromOrder(std::move(order));
}

RankMapping RankingFromOrder(std::vector<VertexId> rank_to_orig) {
  RankMapping m;
  m.rank_to_orig = std::move(rank_to_orig);
  m.orig_to_rank.assign(m.rank_to_orig.size(), kInvalidVertex);
  for (VertexId r = 0; r < m.rank_to_orig.size(); ++r) {
    VertexId orig = m.rank_to_orig[r];
    HOPDB_CHECK_LT(orig, m.orig_to_rank.size()) << "order id out of range";
    HOPDB_CHECK_EQ(m.orig_to_rank[orig], kInvalidVertex)
        << "duplicate id in rank order";
    m.orig_to_rank[orig] = r;
  }
  return m;
}

Result<CsrGraph> RelabelByRank(const CsrGraph& graph,
                               const RankMapping& mapping) {
  if (mapping.size() != graph.num_vertices()) {
    return Status::InvalidArgument("rank mapping size mismatch");
  }
  EdgeList edges(graph.num_vertices(), graph.directed());
  edges.set_weighted(graph.weighted());
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    for (const Arc& a : graph.OutArcs(u)) {
      if (!graph.directed() && a.to < u) continue;
      edges.Add(mapping.ToInternal(u), mapping.ToInternal(a.to), a.weight);
    }
  }
  edges.set_num_vertices(graph.num_vertices());
  // A permutation keeps a simple graph simple, and FromEdgeList sorts
  // every adjacency, so the list is frozen as it is.
  return CsrGraph::FromEdgeList(edges);
}

}  // namespace hopdb
