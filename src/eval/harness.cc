#include "eval/harness.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <utility>

#include "eval/datasets.h"
#include "eval/verify.h"
#include "eval/workload.h"
#include "gen/glp.h"
#include "gen/weights.h"
#include "hopdb.h"
#include "labeling/mapped_index.h"
#include "query/knn.h"
#include "query/path.h"
#include "search/dijkstra.h"
#include "util/build_info.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hopdb {

namespace {

// Hostile-spec ceilings (the parser is fuzzed; RunEval work must stay
// bounded by what the spec can ask for).
constexpr size_t kMaxDatasets = 32;
constexpr size_t kMaxWorkloads = 32;
constexpr uint64_t kMaxVertices = 2'000'000;
constexpr uint64_t kMaxQueries = 1'000'000;
constexpr uint32_t kMaxVerifySources = 256;

Status SpecError(size_t line_no, const std::string& message) {
  return Status::InvalidArgument("eval spec line " + std::to_string(line_no) +
                                 ": " + message);
}

/// Splits "key=value" (returns false when there is no '='). Keys are
/// matched case-sensitively by the caller.
bool SplitKeyValue(const std::string& token, std::string* key,
                   std::string* value) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

Result<uint64_t> ParseSpecUint(size_t line_no, const std::string& key,
                               const std::string& value, uint64_t max) {
  uint64_t parsed = 0;
  if (!ParseUint64(value, &parsed)) {
    return SpecError(line_no, "'" + key + "' wants an unsigned integer, got '" +
                                  value + "'");
  }
  if (parsed > max) {
    return SpecError(line_no, "'" + key + "' is capped at " +
                                  std::to_string(max) + ", got " + value);
  }
  return parsed;
}

Result<bool> ParseSpecBool(size_t line_no, const std::string& key,
                           const std::string& value) {
  if (value == "0" || value == "false") return false;
  if (value == "1" || value == "true") return true;
  return SpecError(line_no,
                   "'" + key + "' wants 0/1/true/false, got '" + value + "'");
}

bool KnownVariant(const std::string& name) {
  for (const char* variant : kEvalVariants) {
    if (name == variant) return true;
  }
  return false;
}

/// Workload answers fold into one u64 so cross-variant agreement is a
/// single comparison. Plain wrapping addition; identical label content
/// must produce identical sums.
struct Checksum {
  uint64_t value = 0;
  void Add(uint64_t v) { value += v; }
};

std::string SafeFileName(const std::string& name) {
  std::string out;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? "graph" : out;
}

/// Both query-side forms of one built dataset. The heap index owns the
/// labels; blocked is an mmap view over an HLI2 file written into
/// work_dir, opened only when the spec wants it.
struct VariantSet {
  const HopDbIndex* heap = nullptr;
  MappedIndex blocked;
};

bool WantVariant(const EvalSpec& spec, const std::string& name) {
  if (spec.variants.empty()) return true;
  return std::find(spec.variants.begin(), spec.variants.end(), name) !=
         spec.variants.end();
}

Status PrepareVariants(const EvalSpec& spec, const EvalOptions& options,
                       const std::string& dataset_name,
                       const HopDbIndex& index, VariantSet* variants) {
  variants->heap = &index;
  const std::string stem =
      (std::filesystem::path(options.work_dir) / SafeFileName(dataset_name))
          .string();
  if (WantVariant(spec, "blocked")) {
    const std::string path = stem + ".hli2";
    HOPDB_RETURN_NOT_OK(
        MappedIndex::Write(index.label_index(), index.ranking(), path));
    HOPDB_ASSIGN_OR_RETURN(variants->blocked, MappedIndex::Open(path));
  }
  return Status::OK();
}

/// Point query in ORIGINAL ids for a prepared variant.
std::function<Distance(VertexId, VertexId)> PointQuery(
    const VariantSet& variants, const std::string& variant) {
  if (variant == "heap") {
    const HopDbIndex* index = variants.heap;
    return [index](VertexId s, VertexId t) { return index->Query(s, t); };
  }
  const MappedIndex* mapped = &variants.blocked;
  return [mapped](VertexId s, VertexId t) { return mapped->Query(s, t); };
}

/// Internal-id translation for a variant's flat label view (the knn/
/// within engines run in internal ids).
std::function<VertexId(VertexId)> ToInternalFn(const VariantSet& variants,
                                               const std::string& variant) {
  if (variant == "heap") {
    const RankMapping* ranking = &variants.heap->ranking();
    return [ranking](VertexId v) { return ranking->ToInternal(v); };
  }
  const MappedIndex* mapped = &variants.blocked;
  return [mapped](VertexId v) { return mapped->ToInternal(v); };
}

/// The flat label view of a prepared variant.
LabelSetView LabelsOf(const VariantSet& variants, const std::string& variant) {
  if (variant == "heap") return variants.heap->label_index().labels();
  return variants.blocked.labels();
}

EvalWorkloadResult RunDistLike(const EvalWorkload& workload,
                               const std::string& variant,
                               const VariantSet& variants,
                               const std::vector<QueryPair>& pairs) {
  EvalWorkloadResult result;
  result.workload = EvalWorkloadName(workload.kind);
  result.variant = variant;
  const auto query = PointQuery(variants, variant);
  const bool reach = workload.kind == EvalWorkload::Kind::kReach;
  const Distance bound = workload.bound;
  Checksum checksum;
  Stopwatch watch;
  for (const QueryPair& pair : pairs) {
    const Distance d = query(pair.s, pair.t);
    if (reach) {
      checksum.Add(d != kInfDistance && d <= bound ? 1 : 0);
    } else {
      checksum.Add(d);
    }
  }
  const double seconds = watch.Seconds();
  result.queries = pairs.size();
  result.avg_us = pairs.empty() ? 0 : seconds * 1e6 / pairs.size();
  result.checksum = checksum.value;
  return result;
}

EvalWorkloadResult RunBatch(const EvalWorkload& workload,
                            const std::string& variant,
                            const VariantSet& variants,
                            const std::vector<QueryPair>& pairs) {
  EvalWorkloadResult result;
  result.workload = EvalWorkloadName(workload.kind);
  result.variant = variant;
  const auto query = PointQuery(variants, variant);
  const uint32_t batch = std::max<uint32_t>(1, workload.batch_size);
  Checksum checksum;
  Stopwatch watch;
  for (size_t i = 0; i < pairs.size(); i += batch) {
    // One request: the first pair's source to each pair's target, one
    // point query per target, as the server answers a BATCH.
    const size_t end = std::min(pairs.size(), i + batch);
    for (size_t j = i; j < end; ++j) {
      checksum.Add(query(pairs[i].s, pairs[j].t));
    }
  }
  const double seconds = watch.Seconds();
  const uint64_t queries = pairs.size();
  result.queries = queries;
  result.avg_us = queries == 0 ? 0 : seconds * 1e6 / queries;
  result.checksum = checksum.value;
  return result;
}

EvalWorkloadResult RunKnnOrWithin(const EvalWorkload& workload,
                                  const std::string& variant,
                                  const VariantSet& variants,
                                  const std::vector<QueryPair>& pairs) {
  EvalWorkloadResult result;
  result.workload = EvalWorkloadName(workload.kind);
  result.variant = variant;
  const auto to_internal = ToInternalFn(variants, variant);
  // Engine construction (one inverted-list build) happens outside the
  // timed loop, like the serving snapshot's lazily built engine.
  const KnnEngine engine(LabelsOf(variants, variant),
                         KnnEngine::Direction::kForward);
  const bool within = workload.kind == EvalWorkload::Kind::kWithin;
  Checksum checksum;
  Stopwatch watch;
  for (const QueryPair& pair : pairs) {
    const VertexId s = to_internal(pair.s);
    const std::vector<KnnEngine::Neighbor> neighbors =
        within ? engine.QueryWithin(s, workload.radius)
               : engine.Query(s, workload.k);
    // Sum over (vertex, dist): internal ids differ per variant only if
    // the rank permutations differ, and all variants share one build.
    for (const KnnEngine::Neighbor& nb : neighbors) {
      checksum.Add(nb.vertex);
      checksum.Add(nb.dist);
    }
  }
  const double seconds = watch.Seconds();
  result.queries = pairs.size();
  result.avg_us = pairs.empty() ? 0 : seconds * 1e6 / pairs.size();
  result.checksum = checksum.value;
  return result;
}

EvalWorkloadResult RunPath(const std::string& variant,
                           const VariantSet& variants, const CsrGraph& graph,
                           const std::vector<QueryPair>& pairs,
                           std::string* verify_error) {
  EvalWorkloadResult result;
  result.workload = EvalWorkloadName(EvalWorkload::Kind::kPath);
  result.variant = variant;
  if (variant != "heap") {
    // Path unfolding needs the heap index + build graph (the serving
    // layer has the same restriction).
    result.supported = false;
    return result;
  }
  Result<HopDbPathQuerier> querier =
      HopDbPathQuerier::Create(*variants.heap, graph);
  if (!querier.ok()) {
    result.supported = false;
    return result;
  }
  Checksum checksum;
  Stopwatch watch;
  for (const QueryPair& pair : pairs) {
    Result<std::vector<VertexId>> path =
        querier.value().ShortestPath(pair.s, pair.t);
    const Distance d = variants.heap->Query(pair.s, pair.t);
    if (!path.ok()) {
      if (!path.status().IsNotFound() && verify_error->empty()) {
        *verify_error = "path(" + std::to_string(pair.s) + "," +
                        std::to_string(pair.t) +
                        "): " + path.status().ToString();
      }
      if (path.status().IsNotFound() && d != kInfDistance &&
          verify_error->empty()) {
        *verify_error = "path says unreachable but dist(" +
                        std::to_string(pair.s) + "," +
                        std::to_string(pair.t) +
                        ")=" + std::to_string(d);
      }
      continue;
    }
    // Every returned path must be real (each hop an arc) and tight
    // (weight sum == the index distance).
    const Distance length = PathLength(graph, path.value());
    if (length != d && verify_error->empty()) {
      *verify_error = "path(" + std::to_string(pair.s) + "," +
                      std::to_string(pair.t) + ") has length " +
                      std::to_string(length) + " but dist is " +
                      std::to_string(d);
    }
    checksum.Add(length);
    checksum.Add(path.value().size());
  }
  const double seconds = watch.Seconds();
  result.queries = pairs.size();
  result.avg_us = pairs.empty() ? 0 : seconds * 1e6 / pairs.size();
  result.checksum = checksum.value;
  return result;
}

/// WITHIN / REACH oracle legs over sampled sources: compares the heap
/// engines against single-source BFS/Dijkstra ground truth. Returns the
/// first mismatch description, or "".
std::string OracleSpotCheck(const EvalSpec& spec, const CsrGraph& graph,
                            const HopDbIndex& index) {
  const VertexId n = graph.num_vertices();
  if (n == 0) return "";
  KnnEngine engine(index.label_index().labels(),
                   KnnEngine::Direction::kForward);
  const RankMapping& ranking = index.ranking();
  Distance radius = 3;
  Distance bound = 4;
  for (const EvalWorkload& w : spec.workloads) {
    if (w.kind == EvalWorkload::Kind::kWithin) radius = w.radius;
    if (w.kind == EvalWorkload::Kind::kReach) bound = w.bound;
  }
  // Oracle stream, decorrelated from the workload query pairs.
  SplitMix64 rng(DeriveSeed(spec.query_seed, 0x07A1));
  const uint32_t sources = std::min<uint32_t>(spec.verify_sources, n);
  for (uint32_t i = 0; i < sources; ++i) {
    const VertexId src = static_cast<VertexId>(rng.Next() % n);
    const std::vector<Distance> exact = ExactDistances(graph, src);
    // WITHIN: the engine's answer set must equal the exact in-radius
    // set, distances included.
    std::vector<KnnEngine::Neighbor> within =
        engine.QueryWithin(ranking.ToInternal(src), radius);
    std::map<VertexId, Distance> got;
    for (const KnnEngine::Neighbor& nb : within) {
      got[ranking.ToOriginal(nb.vertex)] = nb.dist;
    }
    for (VertexId v = 0; v < n; ++v) {
      const bool in_radius = v != src && exact[v] <= radius;
      const auto it = got.find(v);
      if (in_radius != (it != got.end())) {
        return "within(" + std::to_string(src) + ", r=" +
               std::to_string(radius) + ") " +
               (in_radius ? "misses " : "includes ") + std::to_string(v);
      }
      if (it != got.end() && it->second != exact[v]) {
        return "within(" + std::to_string(src) + ") has dist " +
               std::to_string(it->second) + " for " + std::to_string(v) +
               ", exact " + std::to_string(exact[v]);
      }
    }
    // REACH: bounded reachability from the label distance must match
    // the exact distance's verdict for sampled targets.
    for (uint32_t j = 0; j < 32; ++j) {
      const VertexId t = static_cast<VertexId>(rng.Next() % n);
      const Distance d = index.Query(src, t);
      const bool got_reach = d != kInfDistance && d <= bound;
      const bool exact_reach = exact[t] != kInfDistance && exact[t] <= bound;
      if (got_reach != exact_reach) {
        return "reach(" + std::to_string(src) + "," + std::to_string(t) +
               ", k=" + std::to_string(bound) + ") = " +
               (got_reach ? "1" : "0") + ", oracle says " +
               (exact_reach ? "1" : "0");
      }
    }
  }
  return "";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

const char* EvalWorkloadName(EvalWorkload::Kind kind) {
  switch (kind) {
    case EvalWorkload::Kind::kDist: return "dist";
    case EvalWorkload::Kind::kBatch: return "batch";
    case EvalWorkload::Kind::kKnn: return "knn";
    case EvalWorkload::Kind::kWithin: return "within";
    case EvalWorkload::Kind::kReach: return "reach";
    case EvalWorkload::Kind::kPath: return "path";
  }
  return "unknown";
}

Result<EvalSpec> ParseEvalSpec(const std::string& text) {
  EvalSpec spec;
  const std::vector<std::string> lines = SplitString(text, '\n',
                                                     /*skip_empty=*/false);
  for (size_t i = 0; i < lines.size(); ++i) {
    const size_t line_no = i + 1;
    std::string line = lines[i];
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = TrimString(line);
    if (line.empty()) continue;
    std::vector<std::string> tokens;
    for (const std::string& raw : SplitString(line, ' ')) {
      const std::string token = TrimString(raw);
      if (!token.empty()) tokens.push_back(token);
    }
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    if (directive == "dataset") {
      if (tokens.size() < 2) {
        return SpecError(line_no, "dataset wants a registry name");
      }
      if (spec.datasets.size() >= kMaxDatasets) {
        return SpecError(line_no, "too many datasets (max " +
                                      std::to_string(kMaxDatasets) + ")");
      }
      EvalDataset dataset;
      dataset.name = tokens[1];
      if (FindDataset(dataset.name) == nullptr) {
        return SpecError(line_no,
                         "unknown dataset '" + dataset.name + "'");
      }
      for (size_t t = 2; t < tokens.size(); ++t) {
        std::string key, value;
        if (!SplitKeyValue(tokens[t], &key, &value)) {
          return SpecError(line_no, "expected key=value, got '" + tokens[t] +
                                        "'");
        }
        if (key == "scale") {
          double scale = 0;
          if (!ParseDouble(value, &scale) || !(scale > 0) || scale > 100) {
            return SpecError(line_no,
                             "scale wants a number in (0, 100], got '" +
                                 value + "'");
          }
          dataset.scale = scale;
        } else {
          return SpecError(line_no, "unknown dataset option '" + key + "'");
        }
      }
      spec.datasets.push_back(std::move(dataset));
    } else if (directive == "graph") {
      if (spec.datasets.size() >= kMaxDatasets) {
        return SpecError(line_no, "too many datasets (max " +
                                      std::to_string(kMaxDatasets) + ")");
      }
      EvalDataset dataset;
      dataset.ad_hoc = true;
      dataset.name = "glp";
      for (size_t t = 1; t < tokens.size(); ++t) {
        std::string key, value;
        if (!SplitKeyValue(tokens[t], &key, &value)) {
          return SpecError(line_no, "expected key=value, got '" + tokens[t] +
                                        "'");
        }
        if (key == "n") {
          HOPDB_ASSIGN_OR_RETURN(
              uint64_t n, ParseSpecUint(line_no, key, value, kMaxVertices));
          if (n == 0) return SpecError(line_no, "n must be positive");
          dataset.n = static_cast<VertexId>(n);
        } else if (key == "avg-degree") {
          double deg = 0;
          if (!ParseDouble(value, &deg) || !(deg > 0) || deg > 512) {
            return SpecError(line_no,
                             "avg-degree wants a number in (0, 512], got '" +
                                 value + "'");
          }
          dataset.avg_degree = deg;
        } else if (key == "directed") {
          HOPDB_ASSIGN_OR_RETURN(dataset.directed,
                                 ParseSpecBool(line_no, key, value));
        } else if (key == "weighted") {
          HOPDB_ASSIGN_OR_RETURN(dataset.weighted,
                                 ParseSpecBool(line_no, key, value));
        } else if (key == "seed") {
          HOPDB_ASSIGN_OR_RETURN(
              dataset.seed, ParseSpecUint(line_no, key, value,
                                          std::numeric_limits<uint64_t>::max()));
        } else {
          return SpecError(line_no, "unknown graph option '" + key + "'");
        }
      }
      // Distinct names keep report rows and work files apart.
      dataset.name = "glp-" + std::to_string(spec.datasets.size() + 1);
      spec.datasets.push_back(std::move(dataset));
    } else if (directive == "variants") {
      if (tokens.size() != 2) {
        return SpecError(line_no, "variants wants one comma-separated list");
      }
      spec.variants.clear();
      for (const std::string& name : SplitString(tokens[1], ',')) {
        if (!KnownVariant(name)) {
          return SpecError(line_no, "unknown variant '" + name +
                                        "' (heap | blocked)");
        }
        spec.variants.push_back(name);
      }
      if (spec.variants.empty()) {
        return SpecError(line_no, "variants list is empty");
      }
    } else if (directive == "queries") {
      if (tokens.size() < 2) {
        return SpecError(line_no, "queries wants a count");
      }
      HOPDB_ASSIGN_OR_RETURN(
          spec.num_queries,
          ParseSpecUint(line_no, "queries", tokens[1], kMaxQueries));
      for (size_t t = 2; t < tokens.size(); ++t) {
        std::string key, value;
        if (!SplitKeyValue(tokens[t], &key, &value) || key != "seed") {
          return SpecError(line_no, "unknown queries option '" + tokens[t] +
                                        "'");
        }
        HOPDB_ASSIGN_OR_RETURN(
            spec.query_seed,
            ParseSpecUint(line_no, key, value,
                          std::numeric_limits<uint64_t>::max()));
      }
    } else if (directive == "workload") {
      if (tokens.size() < 2) {
        return SpecError(line_no, "workload wants a kind");
      }
      if (spec.workloads.size() >= kMaxWorkloads) {
        return SpecError(line_no, "too many workloads (max " +
                                      std::to_string(kMaxWorkloads) + ")");
      }
      EvalWorkload workload;
      const std::string& kind = tokens[1];
      if (kind == "dist") {
        workload.kind = EvalWorkload::Kind::kDist;
      } else if (kind == "batch") {
        workload.kind = EvalWorkload::Kind::kBatch;
      } else if (kind == "knn") {
        workload.kind = EvalWorkload::Kind::kKnn;
      } else if (kind == "within") {
        workload.kind = EvalWorkload::Kind::kWithin;
      } else if (kind == "reach") {
        workload.kind = EvalWorkload::Kind::kReach;
      } else if (kind == "path") {
        workload.kind = EvalWorkload::Kind::kPath;
      } else {
        return SpecError(line_no, "unknown workload '" + kind +
                                      "' (dist | batch | knn | within | "
                                      "reach | path)");
      }
      for (size_t t = 2; t < tokens.size(); ++t) {
        std::string key, value;
        if (!SplitKeyValue(tokens[t], &key, &value)) {
          return SpecError(line_no, "expected key=value, got '" + tokens[t] +
                                        "'");
        }
        HOPDB_ASSIGN_OR_RETURN(
            uint64_t parsed,
            ParseSpecUint(line_no, key, value,
                          std::numeric_limits<uint32_t>::max()));
        if (key == "k") {
          workload.k = static_cast<uint32_t>(parsed);
        } else if (key == "radius") {
          workload.radius = static_cast<Distance>(parsed);
        } else if (key == "bound") {
          workload.bound = static_cast<Distance>(parsed);
        } else if (key == "size") {
          if (parsed == 0) return SpecError(line_no, "size must be positive");
          workload.batch_size = static_cast<uint32_t>(parsed);
        } else {
          return SpecError(line_no, "unknown workload option '" + key + "'");
        }
      }
      spec.workloads.push_back(workload);
    } else if (directive == "verify") {
      if (tokens.size() != 2) {
        return SpecError(line_no, "verify wants a source count");
      }
      HOPDB_ASSIGN_OR_RETURN(
          uint64_t sources,
          ParseSpecUint(line_no, "verify", tokens[1], kMaxVerifySources));
      spec.verify_sources = static_cast<uint32_t>(sources);
    } else {
      return SpecError(line_no, "unknown directive '" + directive +
                                    "' (dataset | graph | variants | "
                                    "queries | workload | verify)");
    }
  }
  if (spec.datasets.empty()) {
    return Status::InvalidArgument(
        "eval spec names no datasets (add 'dataset <name>' or 'graph ...' "
        "lines)");
  }
  if (spec.workloads.empty()) {
    for (const EvalWorkload::Kind kind :
         {EvalWorkload::Kind::kDist, EvalWorkload::Kind::kBatch,
          EvalWorkload::Kind::kKnn, EvalWorkload::Kind::kWithin,
          EvalWorkload::Kind::kReach, EvalWorkload::Kind::kPath}) {
      EvalWorkload workload;
      workload.kind = kind;
      spec.workloads.push_back(workload);
    }
  }
  return spec;
}

std::string DefaultEvalSpecText(bool ci) {
  // The four graph-family corners the paper's tables sweep, at a scale
  // the harness finishes in seconds (CI) or a couple of minutes (dev).
  const char* n = ci ? "1500" : "8000";
  std::string text;
  text += "# hopdb eval: default graph-family sweep\n";
  text += std::string("graph n=") + n + " avg-degree=8 seed=11\n";
  text += std::string("graph n=") + n +
          " avg-degree=8 directed=1 seed=12\n";
  text += std::string("graph n=") + n +
          " avg-degree=6 weighted=1 seed=13\n";
  text += std::string("graph n=") + n +
          " avg-degree=6 directed=1 weighted=1 seed=14\n";
  text += ci ? "queries 400 seed=7\n" : "queries 4000 seed=7\n";
  text += "workload dist\n";
  text += "workload batch size=16\n";
  text += "workload knn k=8\n";
  text += "workload within radius=3\n";
  text += "workload reach bound=4\n";
  text += "workload path\n";
  text += ci ? "verify 3\n" : "verify 8\n";
  return text;
}

bool EvalReport::AllPass() const {
  for (const EvalExpectation& e : expectations) {
    if (!e.pass) return false;
  }
  return true;
}

Result<EvalReport> RunEval(const EvalSpec& spec, const EvalOptions& options) {
  EvalReport report;
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    return Status::IOError("cannot create eval work dir '" +
                           options.work_dir + "': " + ec.message());
  }

  double max_build_seconds = 0;
  double max_avg_label = 0;
  double max_dist_avg_us = 0;
  bool variants_agree = true;
  bool verified = true;

  for (const EvalDataset& dataset : spec.datasets) {
    // 1. Materialize the graph.
    CsrGraph graph;
    if (dataset.ad_hoc) {
      GlpOptions glp;
      glp.num_vertices = std::max<VertexId>(
          16, static_cast<VertexId>(dataset.n * options.scale));
      glp.target_avg_degree = dataset.avg_degree;
      glp.seed = dataset.seed;
      HOPDB_ASSIGN_OR_RETURN(EdgeList edges,
                             dataset.directed ? GenerateDirectedGlp(glp)
                                              : GenerateGlp(glp));
      if (dataset.weighted) {
        AssignUniformWeights(&edges, 1, 9, DeriveSeed(dataset.seed, 97));
      }
      edges.Normalize();
      HOPDB_ASSIGN_OR_RETURN(graph, CsrGraph::FromEdgeList(edges));
    } else {
      const DatasetSpec* registry = FindDataset(dataset.name);
      if (registry == nullptr) {
        return Status::InvalidArgument("unknown dataset '" + dataset.name +
                                       "'");
      }
      LoadOptions load;
      load.scale = dataset.scale * options.scale;
      load.data_dir = options.data_dir;
      HOPDB_ASSIGN_OR_RETURN(graph, LoadDataset(*registry, load));
    }

    EvalDatasetResult row;
    row.name = dataset.name;
    row.vertices = graph.num_vertices();
    row.edges = graph.num_edges();
    row.directed = graph.directed();
    row.weighted = graph.weighted();

    // 2. One build; every variant re-expresses these labels.
    Stopwatch build_watch;
    HOPDB_ASSIGN_OR_RETURN(HopDbIndex index, HopDbIndex::Build(graph));
    row.build_seconds = build_watch.Seconds();
    row.label_entries = index.label_index().TotalEntries();
    row.avg_label = index.AvgLabelSize();
    row.index_bytes = index.PaperSizeBytes();
    max_build_seconds = std::max(max_build_seconds, row.build_seconds);
    max_avg_label = std::max(max_avg_label, row.avg_label);

    VariantSet variants;
    HOPDB_RETURN_NOT_OK(
        PrepareVariants(spec, options, dataset.name, index, &variants));

    // 3. Workloads x variants.
    const std::vector<QueryPair> pairs =
        RandomPairs(graph.num_vertices(), spec.num_queries, spec.query_seed);
    std::string verify_error;
    for (const EvalWorkload& workload : spec.workloads) {
      bool have_reference = false;
      uint64_t reference_checksum = 0;  // variant agreement
      for (const char* variant : kEvalVariants) {
        if (!WantVariant(spec, variant)) continue;
        EvalWorkloadResult result;
        switch (workload.kind) {
          case EvalWorkload::Kind::kDist:
          case EvalWorkload::Kind::kReach:
            result = RunDistLike(workload, variant, variants, pairs);
            break;
          case EvalWorkload::Kind::kBatch:
            result = RunBatch(workload, variant, variants, pairs);
            break;
          case EvalWorkload::Kind::kKnn:
          case EvalWorkload::Kind::kWithin:
            result = RunKnnOrWithin(workload, variant, variants, pairs);
            break;
          case EvalWorkload::Kind::kPath:
            result = RunPath(variant, variants, graph, pairs, &verify_error);
            break;
        }
        if (result.supported) {
          if (!have_reference) {
            have_reference = true;
            reference_checksum = result.checksum;
          } else if (result.checksum != reference_checksum) {
            variants_agree = false;
          }
          if (workload.kind == EvalWorkload::Kind::kDist &&
              std::string(variant) == "heap") {
            max_dist_avg_us = std::max(max_dist_avg_us, result.avg_us);
          }
        }
        row.workloads.push_back(std::move(result));
      }
    }

    // 4. Oracle verification: exact distances + WITHIN/REACH/PATH legs.
    if (spec.verify_sources > 0) {
      VerifyOptions verify;
      verify.sample_sources = spec.verify_sources;
      verify.seed = DeriveSeed(spec.query_seed, 1);
      const Status exact = VerifyExactDistances(
          graph,
          [&index](VertexId s, VertexId t) { return index.Query(s, t); },
          verify);
      if (!exact.ok() && verify_error.empty()) {
        verify_error = exact.ToString();
      }
      if (verify_error.empty()) {
        verify_error = OracleSpotCheck(spec, graph, index);
      }
      row.verify = verify_error.empty() ? "pass" : verify_error;
    } else if (!verify_error.empty()) {
      // The PATH workload validates its answers even with verification
      // off; a mismatch there must still fail the gate.
      row.verify = verify_error;
    }
    if (!verify_error.empty()) verified = false;
    report.datasets.push_back(std::move(row));
  }

  // 5. Order-of-magnitude expectations. Bounds are deliberately loose —
  // they catch regressions of 10x, not 10%; bench/ carries the tight
  // numbers.
  const auto expect = [&report](const std::string& name, double value,
                                double min_value, double max_value) {
    EvalExpectation e;
    e.name = name;
    e.value = value;
    e.min_value = min_value;
    e.max_value = max_value;
    e.pass = value >= min_value && value <= max_value;
    report.expectations.push_back(e);
  };
  // Paper order of magnitude: microsecond point queries, label sizes in
  // the tens-to-hundreds, builds in seconds at harness scale.
  expect("dist_avg_us_max", max_dist_avg_us, 0, 2000);
  expect("avg_label_size_max", max_avg_label, 1, 1024);
  expect("build_seconds_max", max_build_seconds, 0, 300);
  expect("variant_checksums_agree", variants_agree ? 1 : 0, 1, 1);
  expect("oracle_verified", verified ? 1 : 0, 1, 1);
  return report;
}

std::string RenderEvalMarkdown(const EvalReport& report) {
  std::string md = "# hopdb eval report\n\n";

  md += std::string(kEvalReportSections[0]) + "\n\n";  // ## Environment
  md += std::string("- build: ") + BuildVersion() + " (" + BuildGitSha() +
        ")\n";
  md += "- variants: heap (in-memory, frozen blocked store), blocked (mmap "
        "HLI2 blocked arenas)\n\n";

  md += std::string(kEvalReportSections[1]) + "\n\n";  // ## Datasets
  md += "| dataset | vertices | edges | directed | weighted |\n";
  md += "|---|---:|---:|---|---|\n";
  for (const EvalDatasetResult& d : report.datasets) {
    md += "| " + d.name + " | " + std::to_string(d.vertices) + " | " +
          std::to_string(d.edges) + " | " + (d.directed ? "yes" : "no") +
          " | " + (d.weighted ? "yes" : "no") + " |\n";
  }
  md += "\n";

  md += std::string(kEvalReportSections[2]) + "\n\n";  // ## Build
  md += "| dataset | build s | label entries | avg label | index bytes |\n";
  md += "|---|---:|---:|---:|---:|\n";
  for (const EvalDatasetResult& d : report.datasets) {
    md += "| " + d.name + " | " + FormatDouble(d.build_seconds, 2) + " | " +
          std::to_string(d.label_entries) + " | " +
          FormatDouble(d.avg_label, 1) + " | " +
          std::to_string(d.index_bytes) + " |\n";
  }
  md += "\n";

  md += std::string(kEvalReportSections[3]) + "\n\n";  // ## Query workloads
  md += "| dataset | workload | variant | queries | avg us | checksum |\n";
  md += "|---|---|---|---:|---:|---:|\n";
  for (const EvalDatasetResult& d : report.datasets) {
    for (const EvalWorkloadResult& w : d.workloads) {
      md += "| " + d.name + " | " + w.workload + " | " + w.variant + " | ";
      if (w.supported) {
        md += std::to_string(w.queries) + " | " + FormatDouble(w.avg_us, 2) +
              " | " + std::to_string(w.checksum) + " |\n";
      } else {
        md += "— | — | — |\n";
      }
    }
  }
  md += "\n";

  md += std::string(kEvalReportSections[4]) + "\n\n";  // ## Verification
  md += "| dataset | oracle |\n|---|---|\n";
  for (const EvalDatasetResult& d : report.datasets) {
    md += "| " + d.name + " | " + d.verify + " |\n";
  }
  md += "\n";

  md += std::string(kEvalReportSections[5]) + "\n\n";  // ## Expectations
  md += "| expectation | value | range | pass |\n|---|---:|---|---|\n";
  for (const EvalExpectation& e : report.expectations) {
    md += "| " + e.name + " | " + FormatDouble(e.value, 2) + " | [" +
          FormatDouble(e.min_value, 0) + ", " + FormatDouble(e.max_value, 0) +
          "] | " + (e.pass ? "yes" : "**NO**") + " |\n";
  }
  md += "\n";
  md += report.AllPass() ? "All expectations passed.\n"
                         : "EXPECTATION FAILURES — see above.\n";
  return md;
}

std::string RenderEvalJson(const EvalReport& report) {
  std::string json = "{\n  \"datasets\": [\n";
  for (size_t i = 0; i < report.datasets.size(); ++i) {
    const EvalDatasetResult& d = report.datasets[i];
    json += "    {\"name\": \"" + JsonEscape(d.name) + "\", \"vertices\": " +
            std::to_string(d.vertices) + ", \"edges\": " +
            std::to_string(d.edges) + ", \"directed\": " +
            (d.directed ? "true" : "false") + ", \"weighted\": " +
            (d.weighted ? "true" : "false") + ",\n     \"build\": {" +
            "\"seconds\": " + FormatDouble(d.build_seconds, 4) +
            ", \"label_entries\": " + std::to_string(d.label_entries) +
            ", \"avg_label\": " + FormatDouble(d.avg_label, 2) +
            ", \"index_bytes\": " + std::to_string(d.index_bytes) +
            "},\n     \"verify\": \"" + JsonEscape(d.verify) +
            "\",\n     \"workloads\": [\n";
    for (size_t j = 0; j < d.workloads.size(); ++j) {
      const EvalWorkloadResult& w = d.workloads[j];
      json += "      {\"workload\": \"" + w.workload + "\", \"variant\": \"" +
              w.variant + "\", \"supported\": " +
              (w.supported ? "true" : "false") + ", \"queries\": " +
              std::to_string(w.queries) + ", \"avg_us\": " +
              FormatDouble(w.avg_us, 3) + ", \"checksum\": " +
              std::to_string(w.checksum) + "}";
      json += j + 1 < d.workloads.size() ? ",\n" : "\n";
    }
    json += "    ]}";
    json += i + 1 < report.datasets.size() ? ",\n" : "\n";
  }
  json += "  ],\n  \"expectations\": [\n";
  for (size_t i = 0; i < report.expectations.size(); ++i) {
    const EvalExpectation& e = report.expectations[i];
    json += "    {\"name\": \"" + e.name + "\", \"value\": " +
            FormatDouble(e.value, 4) + ", \"min\": " +
            FormatDouble(e.min_value, 4) + ", \"max\": " +
            FormatDouble(e.max_value, 4) + ", \"pass\": " +
            (e.pass ? "true" : "false") + "}";
    json += i + 1 < report.expectations.size() ? ",\n" : "\n";
  }
  json += "  ],\n  \"all_pass\": ";
  json += report.AllPass() ? "true" : "false";
  json += "\n}\n";
  return json;
}

}  // namespace hopdb
