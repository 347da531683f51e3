#include "hopdb.h"

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "labeling/compressed_index.h"
#include "query/path.h"
#include "util/logging.h"
#include "util/serde.h"

namespace hopdb {

Result<HopDbIndex> HopDbIndex::Build(const EdgeList& edges,
                                     const HopDbOptions& options) {
  EdgeList normalized = edges;
  normalized.Normalize();
  HOPDB_ASSIGN_OR_RETURN(CsrGraph graph, CsrGraph::FromEdgeList(normalized));
  return Build(graph, options);
}

Result<HopDbIndex> HopDbIndex::Build(const CsrGraph& graph,
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
      if (options.custom_order.size() != graph.num_vertices()) {
        return Status::InvalidArgument(
            "custom_order must list every vertex exactly once");
      }
      mapping = RankingFromOrder(options.custom_order);
      break;
    }
  }

  HOPDB_ASSIGN_OR_RETURN(CsrGraph ranked, RelabelByRank(graph, mapping));
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

namespace {

/// Writes the rank permutation sidecar shared by both save formats.
Status SavePermutation(const RankMapping& mapping, const std::string& path) {
  std::string perm;
  perm.reserve(8 + 4ull * mapping.rank_to_orig.size());
  PutU64(&perm, mapping.rank_to_orig.size());
  for (VertexId v : mapping.rank_to_orig) PutU32(&perm, v);
  return WriteStringToFile(path + ".perm", perm);
}

}  // namespace

Status HopDbIndex::Save(const std::string& path) const {
  HOPDB_RETURN_NOT_OK(index_.Save(path));
  return SavePermutation(mapping_, path);
}

Status HopDbIndex::SaveCompressed(const std::string& path) const {
  HOPDB_ASSIGN_OR_RETURN(CompressedIndex compressed,
                         CompressedIndex::FromIndex(index_));
  HOPDB_RETURN_NOT_OK(compressed.Save(path));
  return SavePermutation(mapping_, path);
}

Result<HopDbIndex> HopDbIndex::Load(const std::string& path) {
  HopDbIndex out;
  // Dispatch on the file magic: "HLC1" (compressed) or "HLI1" (plain).
  // Only the magic is read here; the chosen loader reads the file once.
  char magic[4] = {0, 0, 0, 0};
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open index file: " + path);
    in.read(magic, 4);  // a shorter file falls to the HLI1 loader's error
  }
  if (std::string_view(magic, 4) == "HLC1") {
    HOPDB_ASSIGN_OR_RETURN(CompressedIndex compressed,
                           CompressedIndex::Load(path));
    HOPDB_ASSIGN_OR_RETURN(out.index_, compressed.Decompress());
  } else {
    HOPDB_ASSIGN_OR_RETURN(out.index_, TwoHopIndex::Load(path));
  }
  std::string perm;
  HOPDB_RETURN_NOT_OK(ReadFileToString(path + ".perm", &perm));
  ByteReader reader(perm);
  uint64_t n = 0;
  HOPDB_RETURN_NOT_OK(reader.ReadU64(&n));
  // Both checks come before `n` sizes an allocation.
  if (n != out.index_.num_vertices()) {
    return Status::InvalidArgument("permutation/index size mismatch");
  }
  if (n > reader.remaining() / 4) {
    return Status::InvalidArgument("truncated permutation file: " + path +
                                   ".perm");
  }
  // RankingFromOrder CHECK-fails on a non-permutation; a file must not.
  std::vector<VertexId> order(n);
  std::vector<uint8_t> seen(n, 0);
  for (auto& v : order) {
    HOPDB_RETURN_NOT_OK(reader.ReadU32(&v));
    if (v >= n || seen[v]) {
      return Status::InvalidArgument("permutation file is not a permutation: " +
                                     path + ".perm");
    }
    seen[v] = 1;
  }
  out.mapping_ = RankingFromOrder(std::move(order));
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
