// HotHubCache: a dense distance table for the top-k highest-rank pivots.
//
// Scale-free 2-hop labels concentrate overwhelmingly on the highest-rank
// pivots (the paper's hub property is why label sizes stay small at
// all), so on internal/rank ids almost every label starts with a run of
// entries whose pivot is a tiny integer. The merge-join still pays a
// pointer-chasing binary rendezvous for those entries on every query.
// This cache materializes that hot prefix as a dense table instead:
//
//   table[slot * k + h] = stored distance of pivot h in label `slot`,
//                         kInfDistance when the label lacks pivot h
//
// for the k top-ranked pivots h in [0, k). A query then answers the
// hub-covered portion with one branch-free dense loop over 2k
// contiguous distances (two cache lines when k = 16) and hands only the
// non-hub suffix of each label to the general merge-join:
// because labels are sorted by pivot and rank ids make "hot" mean
// "small", the hub-covered entries are exactly a prefix, so the suffix
// starts at a precomputed per-slot skip count. Exactness: common pivots
// < k are covered by the dense fold, common pivots >= k by the suffix
// merge, and the two trivial pivots by the same direct lookups the
// general path does; min over all of them is the 2-hop answer.
//
// The cache is an acceleration structure, not a source of truth — it is
// built from (and checked against) a LabelSetView in O(total entries),
// costs 8k bytes per vertex side, and is rebuilt whenever a new
// snapshot is published (server/index_snapshot.h).

#ifndef HOPDB_LABELING_HOT_HUB_H_
#define HOPDB_LABELING_HOT_HUB_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "labeling/flat_label_store.h"
#include "labeling/query_kernel.h"

namespace hopdb {

class HotHubCache {
 public:
  /// An empty cache: enabled() is false and Query must not be called.
  HotHubCache() = default;

  /// Builds the dense table + per-slot skip counts from a label set
  /// (internal ids). `k` is clamped to num_vertices; k == 0 yields a
  /// disabled cache. O(total entries) scan, 4 * k bytes per slot plus
  /// one u32 skip per slot.
  static HotHubCache Build(const LabelSetView& labels, uint32_t k);

  bool enabled() const { return k_ > 0; }
  /// Number of hub pivots covered (internal ids [0, k)).
  uint32_t k() const { return k_; }
  /// Heap footprint of the table + skip counts, for STATS.
  uint64_t SizeBytes() const {
    return table_.size() * sizeof(Distance) + skip_.size() * sizeof(uint32_t);
  }

  /// Exact distance s -> t over INTERNAL ids: dense hub fold, then the
  /// non-hub label suffixes through `kernel.intersect_blocked`, plus
  /// trivial pivots and s == t. Bit-identical
  /// to QueryFlatHalves over the same view. `labels` must be the view
  /// this cache was built from. Const and lock-free for concurrent
  /// callers.
  Distance Query(const LabelSetView& labels, VertexId s, VertexId t,
                 const QueryKernel& kernel) const;
  Distance Query(const LabelSetView& labels, VertexId s, VertexId t) const {
    return Query(labels, s, t, ActiveQueryKernel());
  }

 private:
  uint32_t k_ = 0;
  VertexId num_vertices_ = 0;
  bool directed_ = false;
  /// num_slots x k_ dense distances, slot-major (slot order matches
  /// LabelSetView: out labels first, then in labels when directed).
  std::vector<Distance> table_;
  /// Per-slot count of label entries with pivot < k_ — the hub-covered
  /// prefix length, where the suffix merge starts.
  std::vector<uint32_t> skip_;
};

}  // namespace hopdb

#endif  // HOPDB_LABELING_HOT_HUB_H_
