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

bool IsPermutation(std::span<const VertexId> order) {
  std::vector<uint8_t> seen(order.size(), 0);
  for (const VertexId v : order) {
    if (v >= order.size() || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
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
  const std::vector<VertexId>& rank = mapping.orig_to_rank;
  return CsrGraph::Freeze(
      graph.num_vertices(), graph.directed(), [&](auto&& emit) {
        for (VertexId u = 0; u < graph.num_vertices(); ++u) {
          for (const Arc& a : graph.OutArcs(u)) {
            if (!graph.directed() && a.to < u) continue;  // each edge once
            emit(rank[u], rank[a.to], a.weight);
          }
        }
        return Status::OK();
      });
}

}  // namespace hopdb
