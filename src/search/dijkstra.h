// Dijkstra single-source shortest paths for weighted graphs; ground truth
// for weighted tests and the engine behind weighted PLL / IS-Label.

#ifndef HOPDB_SEARCH_DIJKSTRA_H_
#define HOPDB_SEARCH_DIJKSTRA_H_

#include <vector>

#include "graph/csr_graph.h"
#include "graph/types.h"

namespace hopdb {

/// Single-source weighted distances (forward or backward).
std::vector<Distance> DijkstraDistances(const CsrGraph& graph,
                                        VertexId source,
                                        bool backward = false);

/// Reusable Dijkstra workspace with O(touched) reset, like BfsRunner.
class DijkstraRunner {
 public:
  explicit DijkstraRunner(const CsrGraph& graph);

  void Run(VertexId source, bool backward = false);

  Distance DistanceTo(VertexId v) const { return dist_[v]; }

  /// Vertices settled by the last Run (in settle order).
  const std::vector<VertexId>& visited() const { return visited_; }

 private:
  struct HeapItem {
    Distance dist;
    VertexId vertex;
    bool operator>(const HeapItem& o) const { return dist > o.dist; }
  };

  const CsrGraph& graph_;
  std::vector<Distance> dist_;
  std::vector<VertexId> visited_;
};

/// Exact one-pair weighted distance (test helper).
Distance DijkstraDistance(const CsrGraph& graph, VertexId s, VertexId t);

/// Dispatches to BFS when every arc weighs 1 (the graph holds no weight
/// lane) and Dijkstra otherwise — "the ground truth oracle" used
/// throughout tests and verification.
std::vector<Distance> ExactDistances(const CsrGraph& graph, VertexId source,
                                     bool backward = false);

}  // namespace hopdb

#endif  // HOPDB_SEARCH_DIJKSTRA_H_
