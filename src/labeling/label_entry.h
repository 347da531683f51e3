// Label entry primitives shared by the in-memory index, the builders, and
// the disk format.

#ifndef HOPDB_LABELING_LABEL_ENTRY_H_
#define HOPDB_LABELING_LABEL_ENTRY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace hopdb {

/// One 2-hop label entry: a pivot vertex and the distance of the trough
/// path the entry covers. Label vectors are kept sorted by pivot id so
/// queries are sorted-merge intersections and pruning scans are prefix
/// scans (every witness pivot outranks — has smaller id than — the entry's
/// own pivot).
struct LabelEntry {
  VertexId pivot;
  Distance dist;

  bool operator==(const LabelEntry& o) const {
    return pivot == o.pivot && dist == o.dist;
  }
};

/// Sorted-by-pivot label vector.
using LabelVector = std::vector<LabelEntry>;

/// Entries per SIMD block of the packed label arenas: 16 u32 pivots, one
/// 64-byte cache line's worth. The AVX2 kernel loads a label in blocks
/// of this many lanes from the label's first entry, so the lanes past a
/// label's end hold the next slot's entries; it masks them (see
/// query_kernel.h). Every arena ends with this many all-ones tail lanes
/// (a 0xFFFFFFFF pivot, a distance lane reading kInfDistance at either
/// width), so a block load from the last slot stays in bounds.
inline constexpr uint32_t kLabelBlockEntries = 16;

/// Binary-searches `label` (sorted by pivot) for `pivot`; returns the
/// stored distance or kInfDistance when absent.
inline Distance LookupPivot(std::span<const LabelEntry> label,
                            VertexId pivot) {
  size_t lo = 0, hi = label.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (label[mid].pivot < pivot) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < label.size() && label[lo].pivot == pivot) return label[lo].dist;
  return kInfDistance;
}

/// Index of the first entry with pivot > `pivot` (upper bound).
inline size_t UpperBoundPivot(std::span<const LabelEntry> label,
                              VertexId pivot) {
  size_t lo = 0, hi = label.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (label[mid].pivot <= pivot) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Sorted-merge intersection: minimum d1+d2 over common pivots of two
/// label vectors. This is the core query primitive (Section 2: look up
/// Lout(s) and Lin(t) for the pivot with the smallest d1+d2).
inline Distance IntersectLabels(std::span<const LabelEntry> a,
                                std::span<const LabelEntry> b) {
  Distance best = kInfDistance;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].pivot == b[j].pivot) {
      Distance d = SaturatingAdd(a[i].dist, b[j].dist);
      if (d < best) best = d;
      ++i;
      ++j;
    } else if (a[i].pivot < b[j].pivot) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

}  // namespace hopdb

#endif  // HOPDB_LABELING_LABEL_ENTRY_H_
