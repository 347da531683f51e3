// Vertex ranking (Section 3.1) and rank-relabeling.
//
// The labeling algorithms assume vertices are totally ordered with the
// "most important" vertex first. For scale-free graphs the paper ranks by
// non-increasing degree (undirected) or by non-increasing product of
// in-degree and out-degree (directed, "due to its better performance",
// Section 8). Ties are broken by total degree, then by original id, making
// every build deterministic.
//
// All builders run on a *relabeled* graph where internal id == rank
// position, so the paper's r(u) > r(v) is simply u < v. RankMapping keeps
// the permutation so public APIs speak original ids.

#ifndef HOPDB_GRAPH_RANKING_H_
#define HOPDB_GRAPH_RANKING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/types.h"

namespace hopdb {

enum class RankingPolicy {
  /// Non-increasing total degree (the paper's choice for undirected).
  kDegree,
  /// Non-increasing (in-degree+1)*(out-degree+1) (the paper's choice for
  /// directed graphs; the +1 smoothing keeps source/sink vertices ordered
  /// by their one-sided degree instead of collapsing them all to zero).
  kInOutProduct,
  /// Identity: assume the input is already ranked (id == rank). Used by
  /// tests and by the "general graphs" pathway of Section 7 where the
  /// caller supplies a custom order.
  kIdentity,
};

/// order[i] == original id of the vertex with rank i (rank 0 = highest).
struct RankMapping {
  std::vector<VertexId> rank_to_orig;
  std::vector<VertexId> orig_to_rank;

  VertexId ToInternal(VertexId orig) const { return orig_to_rank[orig]; }
  VertexId ToOriginal(VertexId internal) const {
    return rank_to_orig[internal];
  }
  VertexId size() const { return static_cast<VertexId>(rank_to_orig.size()); }
};

/// Computes the rank order of `graph` under `policy`.
RankMapping ComputeRanking(const CsrGraph& graph, RankingPolicy policy);

/// Builds a mapping from an explicit order (order[i] = original id with
/// rank i). Used for custom rankings on general graphs (Section 7).
RankMapping RankingFromOrder(std::vector<VertexId> rank_to_orig);

/// True iff `order` lists each of 0..order.size()-1 exactly once — the
/// precondition RankingFromOrder CHECK-enforces.
bool IsPermutation(std::span<const VertexId> order);

/// Returns `graph` relabeled so internal id == rank position: the
/// graph's arcs, permuted, go through CsrGraph::Freeze with no edge
/// list in between.
Result<CsrGraph> RelabelByRank(const CsrGraph& graph,
                               const RankMapping& mapping);

}  // namespace hopdb

#endif  // HOPDB_GRAPH_RANKING_H_
