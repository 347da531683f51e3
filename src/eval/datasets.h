// Dataset registry for the experiment harness.
//
// The paper evaluates on SNAP/KONECT graphs plus GLP synthetics. The
// benchmark machines here are offline, so each real dataset is replaced
// by a GLP-generated stand-in that matches its directedness, weightedness
// and |E|/|V| density, with |V| scaled down to laptop scale
// (docs/DATASETS.md records the substitution, row by row). When a real
// edge-list file is available it can be dropped into --data_dir under
// "<name>.txt" and will be used instead of the generator.

#ifndef HOPDB_EVAL_DATASETS_H_
#define HOPDB_EVAL_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "util/status.h"

namespace hopdb {

struct DatasetSpec {
  std::string name;        // paper's dataset name (e.g. "Enron")
  std::string group;       // "undirected unweighted", "directed", ...
  bool directed = false;
  bool weighted = false;
  /// Paper-scale sizes (for the substitution record).
  uint64_t paper_vertices = 0;
  uint64_t paper_edges = 0;
  /// Stand-in sizes at scale 1.0.
  VertexId sim_vertices = 0;
  double sim_avg_degree = 0;
  /// Tier 0 datasets run by default; higher tiers need --full.
  int tier = 0;
  uint64_t seed = 0;
};

/// The Table 6 dataset list (every row of the paper's table, annotated
/// with its stand-in parameters).
const std::vector<DatasetSpec>& Table6Datasets();

/// Looks a dataset up by name (case-sensitive); nullptr if unknown.
const DatasetSpec* FindDataset(const std::string& name);

struct LoadOptions {
  /// Multiplies sim_vertices (0.05 for smoke tests, >1 for bigger runs).
  double scale = 1.0;
  /// Directory searched for "<name>.txt" real edge lists first.
  std::string data_dir;
};

/// Materializes a dataset: real file if present, GLP stand-in otherwise.
Result<CsrGraph> LoadDataset(const DatasetSpec& spec,
                             const LoadOptions& options = {});

}  // namespace hopdb

#endif  // HOPDB_EVAL_DATASETS_H_
