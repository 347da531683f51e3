// Graph loading and saving.
//
// Two formats:
//  * Text edge lists ("u v" or "u v w" per line, '#'/'%' comments), the
//    format SNAP and KONECT distribute — so real datasets drop in directly
//    when available.
//  * A little-endian binary format (HGR1) for fast reload of generated
//    stand-in datasets.

#ifndef HOPDB_GRAPH_GRAPH_IO_H_
#define HOPDB_GRAPH_GRAPH_IO_H_

#include <string>

#include "graph/csr_graph.h"
#include "graph/edge_list.h"
#include "graph/ranking.h"
#include "util/status.h"

namespace hopdb {

struct TextGraphOptions {
  bool directed = true;
  /// When false, a third column (weight) is ignored and all weights are 1.
  bool read_weights = true;
  /// Vertex ids in the file may be arbitrary (non-contiguous); when true
  /// they are compacted to 0..n-1 in first-appearance order (each line's
  /// source before its destination).
  bool compact_ids = true;
};

/// Parses a text edge list. Lines starting with '#' or '%' are comments.
Result<EdgeList> ReadTextEdgeList(const std::string& path,
                                  const TextGraphOptions& options);

/// Parses a text edge list from an in-memory string (used by tests).
Result<EdgeList> ParseTextEdgeList(const std::string& text,
                                   const TextGraphOptions& options);

/// Writes "u v w" lines (w omitted for unweighted graphs).
Status WriteTextEdgeList(const EdgeList& edges, const std::string& path);

/// Binary format:
///   magic "HGR1" | u32 flags (bit0 directed, bit1 weighted) |
///   u32 num_vertices | u64 num_edges | edges (u32 src, u32 dst[, u32 w])
/// Exactly num_edges records follow the header: a file with fewer bytes
/// or with bytes after the last record is refused.
Status WriteBinaryGraph(const EdgeList& edges, const std::string& path);
/// Reads an HGR1 file as it is stored (not normalized), checking the
/// header and every record as LoadCsrGraph does.
Result<EdgeList> ReadBinaryGraph(const std::string& path);

/// True for the extensions that select HGR1 (.hgr, .bin); every other
/// graph path is a text edge list.
bool IsBinaryGraphPath(const std::string& path);

/// Loads a graph file into CSR form, choosing the format by extension:
/// an HGR1 file streams through a fixed 1 MiB window into
/// CsrGraph::Freeze in two passes, so no edge list is held (its own
/// directed flag wins over the argument, and its weighted flag only
/// sizes its records); a text edge list is parsed with the given
/// options, then frozen. Both give the CSR FromEdgeList gives on the
/// file's Normalize()d edges, whose arcs decide whether it holds a
/// weight lane (CsrGraph::weighted()). With a
/// `ranking`, each edge is relabeled through ranking->orig_to_rank as
/// it is read, so the CSR is in the rank ids of the index that mapping
/// belongs to; a graph whose vertex count differs from the mapping's is
/// refused with InvalidArgument before the CSR is sized. The loader
/// behind `hopdb_cli build/update` and the server's --graph
/// registration.
Result<CsrGraph> LoadCsrGraph(const std::string& path, bool directed,
                              bool read_weights,
                              const RankMapping* ranking = nullptr);

}  // namespace hopdb

#endif  // HOPDB_GRAPH_GRAPH_IO_H_
