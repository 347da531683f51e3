// Immutable serving snapshot + atomically swappable handle.
//
// The hot-swap design is RCU-style: the whole queryable state (index,
// lazily built KNN engine, provenance) lives in one immutable
// ServingSnapshot published through a shared_ptr. Readers grab a
// shared_ptr copy per request and query without any further
// synchronization — the read path is const end-to-end (see hopdb.h).
// RELOAD builds a fresh snapshot off to the side and swaps the pointer;
// in-flight requests finish on the snapshot they started with, and the
// old index is freed when the last such request drops its reference.
// Zero downtime, no reader-side locks held across a query.
//
// A snapshot is backed by exactly one of two index forms:
//   - heap: a HopDbIndex (HLI1/HLC1 deserialized into label vectors and
//     their frozen store) — RELOAD re-reads and re-deserializes the file;
//   - mmap: a MappedIndex over an HLI2 file — the label arenas live in
//     the page cache, resident bytes grow with the touched working set,
//     and RELOAD is an O(1) remap.
// Both constructors reduce the backing to the same three things: one
// LabelSetView over its label arenas and its two id permutations. Every
// query entry point reads only those, so DIST/BATCH/KNN/WITHIN/REACH
// take one code path over either backing.

#ifndef HOPDB_SERVER_INDEX_SNAPSHOT_H_
#define HOPDB_SERVER_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "hopdb.h"
#include "labeling/hot_hub.h"
#include "labeling/mapped_index.h"
#include "query/knn.h"
#include "server/result_cache.h"

namespace hopdb {

class ServingSnapshot {
 public:
  /// Heap-backed snapshot. `source_path` is the file RELOAD-without-
  /// argument re-reads; may be empty for in-memory indexes (RELOAD then
  /// requires an explicit path). `cache_capacity` sizes this snapshot's
  /// result cache (0 disables). `hot_hub_k` sizes the snapshot's dense
  /// top-k pivot table (labeling/hot_hub.h; 0 disables) — built here,
  /// at publish time, so readers never see a partially built cache.
  /// `path_graph` (ORIGINAL ids, the graph the index was built from)
  /// enables PATH queries; the path engine is built lazily on first use.
  ServingSnapshot(HopDbIndex index, std::string source_path,
                  size_t cache_capacity, uint32_t hot_hub_k = 0,
                  std::shared_ptr<const CsrGraph> path_graph = nullptr)
      : index_(std::move(index)),
        labels_(index_.label_index().labels()),
        to_internal_(index_.ranking().orig_to_rank.data()),
        to_original_(index_.ranking().rank_to_orig.data()),
        hub_(HotHubCache::Build(labels_, hot_hub_k)),
        path_graph_(std::move(path_graph)),
        source_path_(std::move(source_path)),
        cache_(cache_capacity) {}

  /// Mmap-backed snapshot over an opened HLI2 index. Same contract;
  /// RELOAD on this snapshot is an O(1) remap of source_path (plus the
  /// one-pass hot-hub build when enabled).
  ServingSnapshot(MappedIndex index, std::string source_path,
                  size_t cache_capacity, uint32_t hot_hub_k = 0)
      : mapped_(std::make_unique<MappedIndex>(std::move(index))),
        labels_(mapped_->labels()),
        to_internal_(mapped_->orig_to_rank()),
        to_original_(mapped_->rank_to_orig()),
        hub_(HotHubCache::Build(labels_, hot_hub_k)),
        source_path_(std::move(source_path)),
        cache_(cache_capacity) {}

  /// True for mmap-backed snapshots.
  bool mapped() const { return mapped_ != nullptr; }

  /// STATS-facing storage mode: "mmap" or "heap".
  const char* map_mode() const { return mapped() ? "mmap" : "heap"; }

  VertexId num_vertices() const { return labels_.num_vertices; }
  bool directed() const { return labels_.directed; }

  /// Bytes of index data this snapshot holds in RAM. Heap snapshots
  /// report their full in-memory footprint (label vectors + frozen
  /// store); mmap snapshots report the currently resident page-cache
  /// bytes (an mincore walk — near 0 cold, up to MappedBytes() warm).
  uint64_t ResidentBytes() const;

  /// Exact distance between ORIGINAL vertex ids — the single-pair query
  /// entry point every DIST funnels through; kInfDistance when either id
  /// is >= num_vertices(). Hub-first when the hot-hub cache is enabled
  /// (dense top-k fold, then only the non-hub label suffixes through the
  /// merge-join); the plain kernel path otherwise. Bit-identical either
  /// way. Const and lock-free for concurrent callers on either backing.
  Distance Query(VertexId s, VertexId t) const;

  /// The snapshot's hot-hub cache (disabled when hot_hub_k was 0).
  /// STATS reads k/SizeBytes off it.
  const HotHubCache& hot_hub() const { return hub_; }

  /// One-to-many distances from s to every target (ORIGINAL ids),
  /// answered by one pivot-bucket join (query/batch.h) over this
  /// snapshot's labels; out-of-range ids answer kInfDistance. Backs
  /// BATCH requests and same-source DIST micro-batches.
  std::vector<Distance> QueryOneToMany(VertexId s,
                                       const std::vector<VertexId>& targets)
      const;

  /// The k nearest reachable vertices from s (ORIGINAL ids) via this
  /// snapshot's lazily built KNN engine; empty when s is out of range.
  std::vector<std::pair<VertexId, Distance>> QueryKnn(VertexId s,
                                                      uint32_t k) const;

  /// Every vertex within distance `radius` of s (ORIGINAL ids, s itself
  /// excluded; empty when s is out of range), in non-decreasing
  /// (distance, vertex) order, via the same lazily built engine. Exact:
  /// the cover property certifies every in-radius vertex at its true
  /// distance (query/knn.h).
  std::vector<std::pair<VertexId, Distance>> QueryWithin(
      VertexId s, Distance radius) const;

  /// True iff dist(s, t) <= bound in the index's metric (hops on
  /// unweighted graphs, weight sums otherwise). One label intersection.
  bool QueryReach(VertexId s, VertexId t, Distance bound) const {
    const Distance d = Query(s, t);
    return d != kInfDistance && d <= bound;
  }

  /// True when this snapshot can answer PATH: heap-backed with the
  /// build graph registered (serve --graph, or a COMMIT-republished
  /// update session).
  bool HasPathGraph() const { return !mapped() && path_graph_ != nullptr; }

  /// One shortest-path vertex sequence s -> t (ORIGINAL ids, both
  /// endpoints inclusive; {s} when s == t). NotFound when unreachable;
  /// FailedPrecondition when HasPathGraph() is false. The path engine
  /// (a rank-relabeled copy of the graph + greedy label descent) is
  /// built on first use and shared by subsequent PATH requests.
  Result<std::vector<VertexId>> QueryPath(VertexId s, VertexId t) const;

  /// The heap index. Only valid for !mapped() snapshots (checked);
  /// in-process embedders that need the full HopDbIndex API should gate
  /// on mapped() first.
  const HopDbIndex& index() const;

  const std::string& source_path() const { return source_path_; }

  /// The snapshot's own (s, t) -> distance cache. Owning the cache here
  /// (rather than in the server) makes hot-swap trivially coherent: a
  /// new snapshot starts with an empty cache, and workers still running
  /// on the old snapshot can only touch the old cache, which dies with
  /// it — no clear/fill race, no stale answers after RELOAD.
  ResultCache& cache() const { return cache_; }

 private:
  /// Forward-direction KNN engine over this snapshot's labels, built on
  /// first use (RELOAD stays cheap for DIST-only workloads) and shared
  /// by all subsequent KNN requests. Thread-safe via call_once; the
  /// engine itself is read-only after construction.
  const KnnEngine& knn_engine() const;

  /// ORIGINAL -> INTERNAL id, kInvalidVertex when out of range — the
  /// one range check of the engine-backed entry points, whose engines
  /// answer an id >= |V| as unreachable.
  VertexId ToInternal(VertexId v) const {
    return v < labels_.num_vertices ? to_internal_[v] : kInvalidVertex;
  }
  /// An engine's (INTERNAL id, distance) answer in ORIGINAL ids.
  std::vector<std::pair<VertexId, Distance>> ToOriginal(
      const std::vector<KnnEngine::Neighbor>& neighbors) const;

  HopDbIndex index_;                      // heap backing (when !mapped_)
  std::unique_ptr<MappedIndex> mapped_;   // mmap backing (when set)
  // What every query reads, set by the constructors from the backing:
  // its label arenas (INTERNAL ids) and both |V|-entry permutations.
  LabelSetView labels_;
  const VertexId* to_internal_;  // ORIGINAL -> INTERNAL
  const VertexId* to_original_;  // INTERNAL -> ORIGINAL
  HotHubCache hub_;  // built from labels_ at publish time, then immutable
  /// ORIGINAL-id build graph backing PATH queries (heap snapshots only).
  std::shared_ptr<const CsrGraph> path_graph_;
  std::string source_path_;
  mutable ResultCache cache_;
  mutable std::once_flag knn_once_;
  mutable std::unique_ptr<KnnEngine> knn_;
  mutable std::once_flag path_once_;
  mutable std::unique_ptr<HopDbPathQuerier> path_;
  mutable Status path_status_;
};

/// The swappable pointer. A plain mutex guards the shared_ptr itself
/// (not the data): Get() copies the pointer under the lock — a handful
/// of nanoseconds — and never holds the lock while querying.
class IndexHandle {
 public:
  IndexHandle() = default;
  explicit IndexHandle(std::shared_ptr<const ServingSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  std::shared_ptr<const ServingSnapshot> Get() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshot_;
  }

  void Set(std::shared_ptr<const ServingSnapshot> snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_ = std::move(snapshot);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ServingSnapshot> snapshot_;
};

}  // namespace hopdb

#endif  // HOPDB_SERVER_INDEX_SNAPSHOT_H_
