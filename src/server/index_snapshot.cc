#include "server/index_snapshot.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "labeling/query_kernel.h"
#include "query/path.h"
#include "util/logging.h"

namespace hopdb {

ServingSnapshot::ServingSnapshot(HopDbIndex index, std::string source_path,
                                 size_t cache_capacity, uint32_t hot_hub_k,
                                 std::shared_ptr<const CsrGraph> path_graph)
    : index_(std::move(index)),
      labels_(index_.label_index().labels()),
      to_internal_(index_.ranking().orig_to_rank.data()),
      to_original_(index_.ranking().rank_to_orig.data()),
      hub_(HotHubCache::Build(labels_, hot_hub_k)),
      source_path_(std::move(source_path)),
      cache_(cache_capacity) {
  if (path_graph == nullptr) return;
  if (path_graph->num_vertices() != index_.num_vertices()) {
    path_status_ = Status::InvalidArgument(
        "graph has " + std::to_string(path_graph->num_vertices()) +
        " vertices but the index was built over " +
        std::to_string(index_.num_vertices()));
    return;
  }
  path_graph_ = std::move(path_graph);
}

Distance ServingSnapshot::Query(VertexId s, VertexId t) const {
  if (s >= num_vertices() || t >= num_vertices()) return kInfDistance;
  const VertexId si = to_internal_[s];
  const VertexId ti = to_internal_[t];
  if (hub_.enabled()) return hub_.Query(labels_, si, ti);
  return QueryFlatHalves(labels_.Out(si), labels_.In(ti), si, ti,
                         ActiveQueryKernel());
}

uint64_t ServingSnapshot::ResidentBytes() const {
  return mapped() ? mapped_->ResidentBytes()
                  : index_.label_index().SizeBytes();
}

const HopDbIndex& ServingSnapshot::index() const {
  HOPDB_CHECK(!mapped())
      << "ServingSnapshot::index() on an mmap-backed snapshot";
  return index_;
}

std::vector<Distance> ServingSnapshot::QueryOneToMany(
    VertexId s, const std::vector<VertexId>& targets) const {
  std::vector<Distance> dists;
  dists.reserve(targets.size());
  for (VertexId t : targets) dists.push_back(Query(s, t));
  return dists;
}

std::vector<std::pair<VertexId, Distance>> ServingSnapshot::ToOriginal(
    const std::vector<KnnEngine::Neighbor>& neighbors) const {
  std::vector<std::pair<VertexId, Distance>> result;
  result.reserve(neighbors.size());
  for (const KnnEngine::Neighbor& nb : neighbors) {
    result.emplace_back(to_original_[nb.vertex], nb.dist);
  }
  return result;
}

std::vector<std::pair<VertexId, Distance>> ServingSnapshot::QueryKnn(
    VertexId s, uint32_t k) const {
  return ToOriginal(knn_engine().Query(ToInternal(s), k));
}

std::vector<std::pair<VertexId, Distance>> ServingSnapshot::QueryWithin(
    VertexId s, Distance radius) const {
  std::vector<std::pair<VertexId, Distance>> result =
      ToOriginal(knn_engine().QueryWithin(ToInternal(s), radius));
  // The engine orders by (distance, internal id); re-sort the vertex
  // tiebreak into original-id space so the wire answer is deterministic
  // in the ids clients actually see.
  std::sort(result.begin(), result.end(),
            [](const std::pair<VertexId, Distance>& a,
               const std::pair<VertexId, Distance>& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  return result;
}

Result<std::vector<VertexId>> ServingSnapshot::QueryPath(VertexId s,
                                                         VertexId t) const {
  HOPDB_RETURN_NOT_OK(path_status_);
  if (!HasPathGraph()) {
    return Status::FailedPrecondition(
        "PATH needs the build graph; serve this index with --graph "
        "(heap-backed indexes only)");
  }
  if (s >= num_vertices() || t >= num_vertices()) {
    return Status::InvalidArgument("vertex id out of range");
  }
  const PathReconstructor recon(*path_graph_, index_.label_index());
  HOPDB_ASSIGN_OR_RETURN(std::vector<VertexId> path,
                         recon.ShortestPath(to_internal_[s], to_internal_[t]));
  for (VertexId& v : path) v = to_original_[v];
  return path;
}

const KnnEngine& ServingSnapshot::knn_engine() const {
  std::call_once(knn_once_, [this] {
    knn_ = std::make_unique<KnnEngine>(labels_, KnnEngine::Direction::kForward);
  });
  return *knn_;
}

}  // namespace hopdb
