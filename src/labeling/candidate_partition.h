// Owner-partitioned candidate layout — the count/plan/claim primitive
// shared by the in-memory builder (Builder::Generate, which counts and
// then emits its rule outputs straight into owner ranges) and the
// external builder's in-memory candidate runs (OwnerPartitionedSort,
// installed as the ExternalSorter sort hook).
//
// Both builders need their candidates sorted by (owner, pivot, dist)
// before duplicate collapse. A global std::sort is a sequential wall, so
// records are laid out with a two-pass counting partition over the owner
// key instead:
//
//   1. count — per-owner record counts (relaxed atomic adds; the sums are
//              order-insensitive). OwnerPartitionPlan::Finish prefix-sums
//              them into owner offsets and cuts the owner space into
//              ~num_threads partitions at record-count quantiles (always
//              on owner boundaries);
//   2. place — each record claims the next slot of its owner's range
//              (per-owner atomic cursors; in-owner order is
//              scheduling-dependent at this point);
//   3. sort  — SortPartitions sorts each partition on its own thread;
//              since owners are already contiguous, only each owner's
//              run needs sorting.
//
// Because the comparator's primary key is the owner and equal-comparing
// records are bytewise identical (owner, pivot, dist all equal), the
// concatenation of sorted partitions in partition order *is* the global
// sorted sequence: the output is bit-identical to std::sort for every
// thread count, which is what keeps the builders' any-thread-count
// determinism guarantee intact.

#ifndef HOPDB_LABELING_CANDIDATE_PARTITION_H_
#define HOPDB_LABELING_CANDIDATE_PARTITION_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "util/parallel.h"

namespace hopdb {

/// Below this record count the partitioned passes cost more than one
/// sort: Finish makes a single partition and OwnerPartitionedSort
/// degenerates to std::sort.
constexpr size_t kMinParallelSortRecords = 1 << 13;

/// Per-owner offsets and owner-aligned partition bounds for one record
/// set. Hold one per record stream and reuse it: the tables keep their
/// capacity across calls.
struct OwnerPartitionPlan {
  /// Record-index partition boundaries set by Finish, owner-aligned and
  /// ascending; bounds[0] == 0, bounds.back() == the record total.
  /// Callers run per-partition sort/dedup/compaction over these.
  std::vector<size_t> bounds;
  /// Count(o) accumulates into owner_offsets[o + 1]; Finish turns the
  /// table into owner start offsets, which Claim consumes as cursors.
  std::vector<uint64_t> owner_offsets;

  /// Starts a counting pass over owners [0, num_owners).
  void ResetCounts(VertexId num_owners) {
    owner_offsets.assign(static_cast<size_t>(num_owners) + 1, 0);
    bounds.clear();
  }

  /// Counts one record of `owner`. Safe to call concurrently.
  void Count(VertexId owner) {
    std::atomic_ref<uint64_t>(owner_offsets[static_cast<size_t>(owner) + 1])
        .fetch_add(1, std::memory_order_relaxed);
  }

  /// Ends the counting pass: prefix-sums the counts into owner offsets
  /// and cuts the owner space into at most `num_parts` partitions at
  /// record-count quantiles (one partition below
  /// kMinParallelSortRecords). Returns the record total.
  uint64_t Finish(uint32_t num_parts) {
    const size_t num_owners = owner_offsets.size() - 1;
    for (size_t v = 0; v < num_owners; ++v) {
      owner_offsets[v + 1] += owner_offsets[v];
    }
    const uint64_t total = owner_offsets.back();
    if (total < kMinParallelSortRecords) num_parts = 1;
    bounds.assign(1, 0);
    for (uint32_t k = 1; k < num_parts; ++k) {
      const uint64_t target = total * k / num_parts;
      const auto it =
          std::lower_bound(owner_offsets.begin(), owner_offsets.end(), target);
      const size_t bound = static_cast<size_t>(*it);
      if (bound > bounds.back() && bound < total) bounds.push_back(bound);
    }
    bounds.push_back(total);
    return total;
  }

  /// Returns the next free record index in `owner`'s range. Valid after
  /// Finish; each owner may claim exactly as many slots as it counted.
  /// Safe to call concurrently.
  uint64_t Claim(VertexId owner) {
    return std::atomic_ref<uint64_t>(owner_offsets[owner])
        .fetch_add(1, std::memory_order_relaxed);
  }
};

/// Sorts `recs` — already grouped into contiguous owner runs in ascending
/// owner order, as Claim leaves them — with `less`, one partition of
/// `bounds` per thread. Only the runs need sorting: with an owner-primary
/// comparator the result equals std::sort over all of `recs`.
template <typename Rec, typename OwnerOf, typename Less>
void SortPartitions(std::span<Rec> recs, const std::vector<size_t>& bounds,
                    OwnerOf owner_of, Less less) {
  const size_t parts = bounds.size() - 1;
  ParallelChunks(static_cast<uint32_t>(parts), parts,
                 [&](size_t pb, size_t pe, uint32_t) {
                   for (size_t i = bounds[pb]; i < bounds[pe];) {
                     const auto owner = owner_of(recs[i]);
                     size_t j = i + 1;
                     while (j < bounds[pe] && owner_of(recs[j]) == owner) ++j;
                     std::sort(recs.begin() + static_cast<ptrdiff_t>(i),
                               recs.begin() + static_cast<ptrdiff_t>(j), less);
                     i = j;
                   }
                 });
}

/// Sorts `recs` with `less` — whose primary key MUST be `owner_of(rec)`,
/// an integer in [0, num_owners) — producing exactly std::sort's output
/// for any thread count. `scratch` is the ping-pong buffer (resized as
/// needed, contents garbage afterwards); `plan` receives the partition
/// boundaries. Sequential below kMinParallelSortRecords or when
/// num_threads <= 1.
template <typename Rec, typename OwnerOf, typename Less>
void OwnerPartitionedSort(std::vector<Rec>* recs, VertexId num_owners,
                          uint32_t num_threads, OwnerOf owner_of, Less less,
                          std::vector<Rec>* scratch,
                          OwnerPartitionPlan* plan) {
  const size_t m = recs->size();
  if (num_threads <= 1 || m < kMinParallelSortRecords || num_owners == 0) {
    std::sort(recs->begin(), recs->end(), less);
    plan->bounds.assign({size_t{0}, m});
    return;
  }
  plan->ResetCounts(num_owners);
  ParallelChunks(num_threads, m, [&](size_t b, size_t e, uint32_t) {
    for (size_t i = b; i < e; ++i) plan->Count(owner_of((*recs)[i]));
  });
  plan->Finish(num_threads);
  scratch->resize(m);
  ParallelChunks(num_threads, m, [&](size_t b, size_t e, uint32_t) {
    for (size_t i = b; i < e; ++i) {
      const Rec& r = (*recs)[i];
      (*scratch)[plan->Claim(owner_of(r))] = r;
    }
  });
  SortPartitions(std::span<Rec>(*scratch), plan->bounds, owner_of, less);
  recs->swap(*scratch);
}

}  // namespace hopdb

#endif  // HOPDB_LABELING_CANDIDATE_PARTITION_H_
