#include "server/index_snapshot.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "labeling/query_kernel.h"
#include "query/batch.h"
#include "util/logging.h"

namespace hopdb {

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
  std::vector<VertexId> internal;
  internal.reserve(targets.size());
  for (VertexId t : targets) internal.push_back(ToInternal(t));
  return OneToManyEngine(labels_, std::move(internal)).Query(ToInternal(s));
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
  if (!HasPathGraph()) {
    return Status::FailedPrecondition(
        "PATH needs the build graph; serve this index with --graph "
        "(heap-backed indexes only)");
  }
  std::call_once(path_once_, [this] {
    auto querier = HopDbPathQuerier::Create(index_, *path_graph_);
    if (querier.ok()) {
      path_ = std::make_unique<HopDbPathQuerier>(std::move(*querier));
    } else {
      path_status_ = querier.status();
    }
  });
  if (path_ == nullptr) return path_status_;
  return path_->ShortestPath(s, t);
}

const KnnEngine& ServingSnapshot::knn_engine() const {
  std::call_once(knn_once_, [this] {
    knn_ = std::make_unique<KnnEngine>(labels_, KnnEngine::Direction::kForward);
  });
  return *knn_;
}

}  // namespace hopdb
