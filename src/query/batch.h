// Batch distance evaluation over a 2-hop index: one-to-many and
// many-to-many by pivot bucketing.
//
// A naive S x T evaluation performs |S| * |T| label intersections. The
// bucket join instead groups the targets' in-label entries by pivot once
// (cost: sum of |Lin(t)|), after which each source is answered by scanning
// the buckets of its own out-label pivots — every (source entry, target
// entry) pair sharing a pivot is touched exactly once. With the paper's
// O(h) label sizes a one-to-many over |T| targets costs O(h^2 + |T|)
// instead of |T| label merges, which is what makes index-backed centrality
// and distance-matrix workloads (Section 1's motivating applications)
// practical.
//
// The buckets live in one flat structure-of-arrays arena (all bucketed
// entries contiguous, one offset per pivot) mirroring the FlatLabelStore
// layout, so a Query(s) is a handful of contiguous range scans instead of
// |Lout(s)| separate heap vectors.

#ifndef HOPDB_QUERY_BATCH_H_
#define HOPDB_QUERY_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "labeling/flat_label_store.h"

namespace hopdb {

/// Repeated one-to-many queries against a fixed target set. Construction
/// buckets the targets' in-labels by pivot; each Query(s) is then a scan
/// of the buckets named by Lout(s).
///
/// Thread safety: construction is exclusive; after that Query is const
/// over immutable arenas and safe for concurrent callers (the serving
/// micro-batch path relies on this).
class OneToManyEngine {
 public:
  /// Buckets the targets' in-labels of a flat label set — a heap
  /// index's frozen store (TwoHopIndex::labels()) or a memory-mapped
  /// HLI2 index (MappedIndex::labels()). The arrays behind the view must
  /// outlive the engine; build a fresh engine after the store is
  /// re-frozen. Vertex ids are the view's (internal/rank) ids. Duplicate
  /// targets are allowed (each position is answered); targets >= |V|
  /// are answered kInfDistance. Construction is O(sum |Lin(t)| + |V|).
  OneToManyEngine(const LabelSetView& labels, std::vector<VertexId> targets);

  /// result[j] = dist(s, targets()[j]); kInfDistance when unreachable.
  /// O(|Lout(s)| + touched bucket entries + |T|) per call.
  std::vector<Distance> Query(VertexId s) const;

  const std::vector<VertexId>& targets() const { return targets_; }

  /// Total bucketed entries (memory/working-set accounting).
  uint64_t TotalBucketEntries() const {
    return static_cast<uint64_t>(bucket_target_.size());
  }

 private:
  /// Scans the bucket of `pivot` relaxing every (target, d2) entry with
  /// source-side distance d1.
  void Relax(VertexId pivot, Distance d1, std::vector<Distance>* result) const;

  LabelSetView view_;
  std::vector<VertexId> targets_;
  /// Flat bucket arena: entries of pivot p occupy
  /// [bucket_offsets_[p], bucket_offsets_[p+1]) in the two parallel
  /// arrays. Entry k covers target position bucket_target_[k] at in-label
  /// distance bucket_dist_[k]; the trivial (t, 0) self-entry of each
  /// target is bucketed under pivot t.
  std::vector<uint64_t> bucket_offsets_;  // |V| + 1
  std::vector<uint32_t> bucket_target_;
  std::vector<uint32_t> bucket_dist_;
};

/// matrix[i][j] = dist(sources[i], targets[j]). One bucket pass over the
/// targets, then one engine query per source.
std::vector<std::vector<Distance>> ManyToManyDistances(
    const LabelSetView& labels, std::span<const VertexId> sources,
    std::span<const VertexId> targets);

}  // namespace hopdb

#endif  // HOPDB_QUERY_BATCH_H_
