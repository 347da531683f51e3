// Unified evaluation harness behind `hopdb_cli eval`: one entry point
// that materializes the paper's graph families (src/gen stand-ins, or
// real edge lists from --data-dir), builds every index variant, runs
// the query workloads — the paper's DIST plus the richer serving verbs
// (BATCH / KNN / WITHIN / REACH / PATH) — and renders one Markdown +
// JSON report whose numbers are held to order-of-magnitude
// expectations (the CI gate re-asserts them from the JSON).
//
// Index variants (one build, four query-side forms):
//   heap        in-memory HopDbIndex: frozen blocked store + SIMD kernel
//   hli2        HLI2 v1 file, mmap-served (packed legacy arena layout)
//   blocked     HLI2 v2 file, mmap-served (blocked arenas + skip
//               sidecars — the cache-conscious microarchitecture)
//   compressed  HLC1 delta-varint form queried without expansion
// Every variant answers from the same labels, so checksum agreement
// across variants is itself one of the report's expectations.
//
// The workload spec is a tiny line-oriented text format (ParseEvalSpec;
// fuzzed under tests/fuzz/) so CI and operators can pin custom runs:
//
//   # one directive per line; '#' starts a comment
//   dataset Enron scale=0.5        # Table 6 registry entry
//   graph n=2000 avg-degree=8 directed=1 weighted=1 seed=13
//   variants heap,blocked          # default: all four
//   queries 512 seed=7
//   workload dist
//   workload batch size=16
//   workload knn k=8
//   workload within radius=3
//   workload reach bound=4
//   workload path
//   verify 4                       # oracle sources per dataset

#ifndef HOPDB_EVAL_HARNESS_H_
#define HOPDB_EVAL_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace hopdb {

/// One query workload over a built dataset.
struct EvalWorkload {
  enum class Kind : uint8_t { kDist, kBatch, kKnn, kWithin, kReach, kPath };
  Kind kind = Kind::kDist;
  uint32_t k = 8;            // KNN neighbor count
  Distance radius = 3;       // WITHIN radius
  Distance bound = 4;        // REACH distance bound
  uint32_t batch_size = 16;  // BATCH targets per request
};

/// Lowercase workload name ("dist", "batch", ...), mirroring the wire
/// verb it exercises.
const char* EvalWorkloadName(EvalWorkload::Kind kind);

/// One graph to evaluate: a Table 6 registry dataset by name, or an
/// ad-hoc GLP family member ("graph" directive).
struct EvalDataset {
  std::string name;      // registry name; "glp" for ad-hoc graphs
  double scale = 1.0;    // registry stand-in |V| multiplier
  bool ad_hoc = false;
  VertexId n = 2000;     // ad-hoc parameters
  double avg_degree = 8.0;
  bool directed = false;
  bool weighted = false;
  uint64_t seed = 1;
};

/// Index variant names, in report order (see the file comment).
inline constexpr const char* kEvalVariants[] = {"heap", "hli2", "blocked",
                                                "compressed"};

struct EvalSpec {
  std::vector<EvalDataset> datasets;
  /// Subset of kEvalVariants; empty means all.
  std::vector<std::string> variants;
  uint64_t num_queries = 512;
  uint64_t query_seed = 7;
  std::vector<EvalWorkload> workloads;
  /// Oracle sources per dataset (BFS/Dijkstra ground truth); 0 skips
  /// verification.
  uint32_t verify_sources = 4;
};

/// Parses the workload-spec text above. Client-safe InvalidArgument
/// (with a line number) on malformed input; never crashes — this is a
/// fuzz target. Directive counts and sizes are capped so a hostile
/// spec cannot request unbounded work.
Result<EvalSpec> ParseEvalSpec(const std::string& text);

/// The built-in spec `hopdb_cli eval` runs without --spec: a small
/// graph-family sweep (undirected/directed x unweighted/weighted) over
/// every workload. `ci` shrinks it to CI scale.
std::string DefaultEvalSpecText(bool ci);

struct EvalOptions {
  /// Scratch directory for the on-disk variants (HLI2 files).
  std::string work_dir = ".hopdb_eval";
  /// Directory searched for real "<name>.txt" edge lists first.
  std::string data_dir;
  /// Extra |V| multiplier applied on top of each dataset's scale.
  double scale = 1.0;
};

/// One (workload, variant) measurement.
struct EvalWorkloadResult {
  std::string workload;
  std::string variant;
  /// False when the variant cannot run this workload (e.g. PATH needs
  /// the heap index, compressed has no batch/knn engine) — rendered as
  /// a dash, not an error.
  bool supported = true;
  uint64_t queries = 0;
  double avg_us = 0;
  /// Answer checksum; equal across variants when answers agree.
  uint64_t checksum = 0;
};

struct EvalDatasetResult {
  std::string name;
  VertexId vertices = 0;
  uint64_t edges = 0;
  bool directed = false;
  bool weighted = false;
  double build_seconds = 0;
  uint64_t label_entries = 0;
  double avg_label = 0;
  uint64_t index_bytes = 0;  // paper accounting
  std::vector<EvalWorkloadResult> workloads;
  /// "pass", "skipped", or the first oracle mismatch.
  std::string verify = "skipped";
};

/// One order-of-magnitude gate over the whole run. `value` must land in
/// [min_value, max_value] to pass; the CI gate re-checks these from the
/// JSON so a harness bug cannot silently pass itself.
struct EvalExpectation {
  std::string name;
  double value = 0;
  double min_value = 0;
  double max_value = 0;
  bool pass = false;
};

struct EvalReport {
  std::vector<EvalDatasetResult> datasets;
  std::vector<EvalExpectation> expectations;

  bool AllPass() const;
};

/// Markdown section headers of RenderEvalMarkdown, in order. Stable:
/// tools/check_docs.py drift-checks the OPERATIONS.md eval runbook
/// against this list, and the CI gate locates sections by them.
inline constexpr const char* kEvalReportSections[] = {
    "## Environment", "## Datasets",     "## Build",
    "## Query workloads", "## Verification", "## Expectations"};

/// Runs the whole spec. Errors are per-run (bad dataset name, work_dir
/// not writable, ...); per-variant oracle mismatches land in the
/// report's verification column and expectations instead, so one bad
/// number fails the gate, not the run.
Result<EvalReport> RunEval(const EvalSpec& spec, const EvalOptions& options);

std::string RenderEvalMarkdown(const EvalReport& report);
std::string RenderEvalJson(const EvalReport& report);

}  // namespace hopdb

#endif  // HOPDB_EVAL_HARNESS_H_
