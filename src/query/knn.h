// Exact k-nearest-neighbor queries over a 2-hop index.
//
// The engine inverts the index once: for every pivot p, the list of label
// owners v with (p, d2) in Lin(v), sorted by d2 (plus the trivial
// (p, 0, p) entry). A query from s lazily merges the lists named by
// Lout(s) with a priority queue, emitting (vertex, d1 + d2) pairs in
// globally non-decreasing total order. The 2-hop cover property makes the
// first emission of each vertex exact: min over common pivots equals the
// true distance, and the global merge order reaches that minimum first.
// Cost: O((k + dup) log |Lout(s)|) pops, independent of |V|.
//
// Applications: "locate influential users near a vertex" (Section 1's
// motivation), candidate generation for community detection, and top-k
// keyword search over RDF graphs.

#ifndef HOPDB_QUERY_KNN_H_
#define HOPDB_QUERY_KNN_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "labeling/flat_label_store.h"
#include "labeling/label_entry.h"

namespace hopdb {

class KnnEngine {
 public:
  enum class Direction {
    /// Nearest vertices reachable FROM the query source (dist(s, v)).
    kForward,
    /// Nearest vertices that REACH the query source (dist(v, s)).
    kBackward,
  };

  struct Neighbor {
    VertexId vertex;
    Distance dist;

    bool operator==(const Neighbor& o) const {
      return vertex == o.vertex && dist == o.dist;
    }
  };

  /// Builds the inverted pivot lists in one pass over a flat label set —
  /// a heap index's frozen store (TwoHopIndex::labels()) or a
  /// memory-mapped HLI2 index (MappedIndex::labels()). The arrays
  /// behind the view must outlive the engine; build a fresh engine after
  /// the store is re-frozen. Vertex ids are the view's (internal/rank)
  /// ids. For undirected label sets both directions coincide.
  KnnEngine(const LabelSetView& labels, Direction direction);

  /// The (up to) k nearest vertices from/to s in non-decreasing distance
  /// order. Ties are broken arbitrarily. `s` itself (distance 0) is
  /// excluded unless include_source is set. Fewer than k results means
  /// fewer than k vertices are reachable.
  std::vector<Neighbor> Query(VertexId s, uint32_t k,
                              bool include_source = false) const;

  /// Every vertex v with dist(s, v) <= radius (dist(v, s) for backward
  /// engines), in non-decreasing (distance, vertex) order; `s` itself is
  /// excluded unless include_source is set. Exact by the cover property:
  /// the certifying pivot pair of any in-radius vertex sums to its true
  /// distance, so the radius-bounded prefix scan of each seed pivot's
  /// sorted inverted list reaches it, and no label sum ever
  /// underestimates. Cost: the in-radius prefixes of |Lout(s)| + 1
  /// inverted lists plus an O(|V|) collect pass.
  std::vector<Neighbor> QueryWithin(VertexId s, Distance radius,
                                    bool include_source = false) const;

  Direction direction() const { return direction_; }

  /// Total inverted entries (equals index entries + |V| trivial entries).
  uint64_t TotalInvertedEntries() const;

 private:
  struct InvEntry {
    Distance dist;
    VertexId owner;
  };

  /// Appends the seed entries for a query from s (the relevant label of
  /// s plus the trivial (s, 0) pivot).
  void CollectSeeds(VertexId s, std::vector<LabelEntry>* seeds) const;

  LabelSetView view_;
  Direction direction_;
  /// inv_[p] = owners whose relevant label names pivot p, sorted by dist.
  std::vector<std::vector<InvEntry>> inv_;
};

}  // namespace hopdb

#endif  // HOPDB_QUERY_KNN_H_
