#include "hopdb.h"

#include <string>
#include <utility>
#include <vector>

#include "query/path.h"
#include "util/logging.h"

namespace hopdb {

namespace {

/// The rank permutation `options` asks for on `graph`.
Result<RankMapping> RankFor(const CsrGraph& graph,
                            const HopDbOptions& options) {
  RankMapping mapping;
  switch (options.ranking) {
    case HopDbOptions::Ranking::kAuto:
      mapping = ComputeRanking(graph, graph.directed()
                                          ? RankingPolicy::kInOutProduct
                                          : RankingPolicy::kDegree);
      break;
    case HopDbOptions::Ranking::kDegree:
      mapping = ComputeRanking(graph, RankingPolicy::kDegree);
      break;
    case HopDbOptions::Ranking::kInOutProduct:
      mapping = ComputeRanking(graph, RankingPolicy::kInOutProduct);
      break;
    case HopDbOptions::Ranking::kCustom: {
      if (options.custom_order.size() != graph.num_vertices() ||
          !IsPermutation(options.custom_order)) {
        return Status::InvalidArgument(
            "custom_order must list every vertex exactly once");
      }
      mapping = RankingFromOrder(options.custom_order);
      break;
    }
  }
  return mapping;
}

}  // namespace

Result<HopDbIndex> HopDbIndex::Build(const EdgeList& edges,
                                     const HopDbOptions& options) {
  // The caller's list is frozen in place.
  HOPDB_ASSIGN_OR_RETURN(CsrGraph graph, CsrGraph::FromEdgeList(edges));
  return Build(std::move(graph), options);
}

Result<HopDbIndex> HopDbIndex::Build(CsrGraph graph,
                                     const HopDbOptions& options) {
  // Labeling reads only the ranked graph, so the unranked one goes once
  // it is relabeled.
  HOPDB_ASSIGN_OR_RETURN(RankMapping mapping, RankFor(graph, options));
  HOPDB_ASSIGN_OR_RETURN(CsrGraph ranked, RelabelByRank(graph, mapping));
  graph = CsrGraph();
  return BuildRanked(ranked, std::move(mapping), options);
}

Result<HopDbIndex> HopDbIndex::BuildRanked(const CsrGraph& ranked,
                                           RankMapping mapping,
                                           const HopDbOptions& options) {
  HOPDB_ASSIGN_OR_RETURN(BuildOutput out,
                         BuildHopLabeling(ranked, options.build));
  HopDbIndex index;
  index.index_ = std::move(out.index);
  index.mapping_ = std::move(mapping);
  index.stats_ = std::move(out.stats);
  return index;
}

Distance HopDbIndex::Query(VertexId src, VertexId dst) const {
  HOPDB_CHECK_LT(src, mapping_.orig_to_rank.size()) << "query id out of range";
  HOPDB_CHECK_LT(dst, mapping_.orig_to_rank.size()) << "query id out of range";
  return index_.Query(mapping_.ToInternal(src), mapping_.ToInternal(dst));
}

Status HopDbIndex::Save(const std::string& path) const {
  return index_.Save(path, mapping_);
}

Result<HopDbIndex> HopDbIndex::Load(const std::string& path) {
  HopDbIndex out;
  HOPDB_ASSIGN_OR_RETURN(out.index_, TwoHopIndex::Load(path, &out.mapping_));
  return out;
}

Result<HopDbPathQuerier> HopDbPathQuerier::Create(
    const HopDbIndex& index, const CsrGraph& original_graph) {
  if (original_graph.num_vertices() != index.num_vertices()) {
    return Status::InvalidArgument(
        "graph has " + std::to_string(original_graph.num_vertices()) +
        " vertices but the index was built over " +
        std::to_string(index.num_vertices()));
  }
  HOPDB_ASSIGN_OR_RETURN(CsrGraph ranked,
                         RelabelByRank(original_graph, index.ranking()));
  return HopDbPathQuerier(&index, std::move(ranked));
}

Result<std::vector<VertexId>> HopDbPathQuerier::ShortestPath(
    VertexId src, VertexId dst) const {
  if (src >= index_->num_vertices() || dst >= index_->num_vertices()) {
    return Status::InvalidArgument("vertex id out of range");
  }
  const RankMapping& mapping = index_->ranking();
  PathReconstructor recon(ranked_graph_, index_->label_index());
  HOPDB_ASSIGN_OR_RETURN(
      std::vector<VertexId> path,
      recon.ShortestPath(mapping.ToInternal(src), mapping.ToInternal(dst)));
  for (VertexId& v : path) v = mapping.ToOriginal(v);
  return path;
}

VertexId HopDbPathQuerier::FirstHop(VertexId src, VertexId dst) const {
  if (src >= index_->num_vertices() || dst >= index_->num_vertices()) {
    return kInvalidVertex;
  }
  const RankMapping& mapping = index_->ranking();
  PathReconstructor recon(ranked_graph_, index_->label_index());
  const VertexId hop =
      recon.FirstHop(mapping.ToInternal(src), mapping.ToInternal(dst));
  return hop == kInvalidVertex ? kInvalidVertex : mapping.ToOriginal(hop);
}

}  // namespace hopdb
