// Fundamental graph value types shared by every module.

#ifndef HOPDB_GRAPH_TYPES_H_
#define HOPDB_GRAPH_TYPES_H_

#include <cstdint>
#include <limits>

namespace hopdb {

/// Vertex identifier. After ranking, internal ids are rank positions:
/// id 0 is the highest-ranked (highest-degree) vertex, matching the
/// paper's convention (its example graph labels vertices 0..7 by rank).
using VertexId = uint32_t;

/// Distance / edge weight. The paper stores 8-bit distances for unweighted
/// graphs; we compute in 32 bits (weighted graphs need the range) and
/// store them narrower when every distance of an index allows it: the
/// frozen label store and HLI2 in one-byte lanes when all are at most
/// 127 (read sign-extended, labeling/flat_label_store.h), HDI1 as u8.
using Distance = uint32_t;

inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();

/// "No path" marker. All query APIs return kInfDistance for unreachable
/// pairs.
inline constexpr Distance kInfDistance = std::numeric_limits<Distance>::max();

/// Adds two distances, saturating at kInfDistance (so inf + x == inf and
/// no overflow UB is possible when combining label halves).
inline Distance SaturatingAdd(Distance a, Distance b) {
  if (a == kInfDistance || b == kInfDistance) return kInfDistance;
  uint64_t s = static_cast<uint64_t>(a) + static_cast<uint64_t>(b);
  return s >= kInfDistance ? kInfDistance : static_cast<Distance>(s);
}

/// A directed, weighted edge. Unweighted graphs use weight == 1.
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  Distance weight = 1;

  Edge() = default;
  Edge(VertexId s, VertexId d, Distance w = 1) : src(s), dst(d), weight(w) {}

  bool operator==(const Edge& o) const {
    return src == o.src && dst == o.dst && weight == o.weight;
  }
};

}  // namespace hopdb

#endif  // HOPDB_GRAPH_TYPES_H_
