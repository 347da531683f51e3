#include "tools/commands.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/harness.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/glp.h"
#include "gen/weights.h"
#include "graph/graph_io.h"
#include "graph/ordering.h"
#include "hopdb.h"
#include "labeling/incremental.h"
#include "labeling/mapped_index.h"
#include "server/client.h"
#include "server/index_registry.h"
#include "server/server.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/random.h"
#include "util/serde.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hopdb {

namespace {

/// Reads an unsigned flag into an option field of a narrower type,
/// refusing values the field cannot hold.
template <typename T>
Status GetUintFlag(const CliFlags& flags, const std::string& name, T* out) {
  HOPDB_ASSIGN_OR_RETURN(const uint64_t value, flags.GetUint(name));
  const uint64_t max = static_cast<uint64_t>(std::numeric_limits<T>::max());
  if (value > max) {
    return Status::InvalidArgument("flag --" + name + " wants at most " +
                                   std::to_string(max) + ", got '" +
                                   flags.GetString(name) + "'");
  }
  *out = static_cast<T>(value);
  return Status::OK();
}

/// Passes on the outcome of reading an input file, noting in `*refused`
/// whether the file was refused. RunCli prints the flag table after an
/// InvalidArgument that is a flag mistake only: a refused input (a
/// corrupt or pre-change index, a crafted graph, a bad ops line) is not
/// one, and the table would bury its message.
template <typename T>
T Input(T outcome, bool* refused) {
  *refused = !outcome.ok();
  return outcome;
}

Result<BuildMode> ParseMode(const std::string& name) {
  if (name == "hybrid") return BuildMode::kHybrid;
  if (name == "stepping" || name == "step") return BuildMode::kHopStepping;
  if (name == "doubling" || name == "double") return BuildMode::kHopDoubling;
  return Status::InvalidArgument("unknown --mode '" + name +
                                 "' (hybrid | stepping | doubling)");
}

Result<OrderStrategy> ParseOrder(const std::string& name) {
  if (name == "degree") return OrderStrategy::kDegree;
  if (name == "inout") return OrderStrategy::kInOutProduct;
  if (name == "neighborhood") return OrderStrategy::kNeighborhoodDegree;
  if (name == "degeneracy") return OrderStrategy::kDegeneracy;
  if (name == "betweenness") return OrderStrategy::kSampledBetweenness;
  if (name == "separator") return OrderStrategy::kSeparator;
  if (name == "random") return OrderStrategy::kRandom;
  return Status::InvalidArgument(
      "unknown --order '" + name +
      "' (auto | degree | inout | neighborhood | degeneracy | betweenness "
      "| separator | random)");
}

// ---------------------------------------------------------------------------
// gen
// ---------------------------------------------------------------------------

Status CmdGen(CliFlags* flags, int argc, char** argv, std::ostream& out) {
  flags->Define("type", "glp", "generator: glp | ba | er");
  flags->Define("n", "10000", "number of vertices");
  flags->Define("avg-degree", "8", "average degree (|E|/|V|)");
  flags->Define("directed", "false", "generate a directed graph");
  flags->Define("weighted", "false", "assign uniform random weights");
  flags->Define("wmin", "1", "minimum edge weight (with --weighted)");
  flags->Define("wmax", "9", "maximum edge weight (with --weighted)");
  flags->Define("seed", "1", "generator seed");
  flags->Define("out", "", "output path (.hgr/.bin binary, else text)");
  HOPDB_RETURN_NOT_OK(flags->Parse(argc, argv));
  if (flags->help_requested()) return Status::OK();

  const std::string type = flags->GetString("type");
  const std::string out_path = flags->GetString("out");
  if (out_path.empty()) {
    return Status::InvalidArgument("gen requires --out <path>");
  }
  VertexId n = 0;
  HOPDB_RETURN_NOT_OK(GetUintFlag(*flags, "n", &n));
  HOPDB_ASSIGN_OR_RETURN(const double avg_degree,
                         flags->GetDouble("avg-degree"));
  HOPDB_ASSIGN_OR_RETURN(const bool directed, flags->GetBool("directed"));
  HOPDB_ASSIGN_OR_RETURN(const uint64_t seed, flags->GetUint("seed"));
  HOPDB_ASSIGN_OR_RETURN(const bool weighted, flags->GetBool("weighted"));
  Distance wmin = 0;
  Distance wmax = 0;
  HOPDB_RETURN_NOT_OK(GetUintFlag(*flags, "wmin", &wmin));
  HOPDB_RETURN_NOT_OK(GetUintFlag(*flags, "wmax", &wmax));
  if (weighted && (wmin == 0 || wmax < wmin)) {
    return Status::InvalidArgument(
        "flag --wmin/--wmax want 1 <= wmin <= wmax, got " +
        std::to_string(wmin) + " and " + std::to_string(wmax));
  }

  EdgeList edges;
  if (type == "glp") {
    GlpOptions glp;
    glp.num_vertices = n;
    glp.target_avg_degree = avg_degree;
    glp.seed = seed;
    HOPDB_ASSIGN_OR_RETURN(edges, directed ? GenerateDirectedGlp(glp)
                                           : GenerateGlp(glp));
  } else if (type == "ba") {
    BaOptions ba;
    ba.num_vertices = n;
    ba.edges_per_vertex =
        std::max<uint32_t>(1, static_cast<uint32_t>(avg_degree / 2));
    ba.seed = seed;
    HOPDB_ASSIGN_OR_RETURN(edges, GenerateBarabasiAlbert(ba));
    if (directed) {
      EdgeList dir_edges(edges.num_vertices(), true);
      for (const Edge& e : edges.edges()) dir_edges.Add(e.src, e.dst);
      dir_edges.Normalize();
      edges = std::move(dir_edges);
    }
  } else if (type == "er") {
    ErOptions er;
    er.num_vertices = n;
    er.num_edges = static_cast<uint64_t>(avg_degree * n);
    er.directed = directed;
    er.seed = seed;
    HOPDB_ASSIGN_OR_RETURN(edges, GenerateErdosRenyi(er));
  } else {
    return Status::InvalidArgument("unknown --type '" + type +
                                   "' (glp | ba | er)");
  }
  if (weighted) {
    AssignUniformWeights(&edges, wmin, wmax, DeriveSeed(seed, 97));
  }

  HOPDB_RETURN_NOT_OK(IsBinaryGraphPath(out_path)
                          ? WriteBinaryGraph(edges, out_path)
                          : WriteTextEdgeList(edges, out_path));
  out << "generated " << type << " graph: |V|=" << edges.num_vertices()
      << " |E|=" << edges.edges().size()
      << (edges.directed() ? " directed" : " undirected")
      << (edges.weighted() ? " weighted" : "") << " -> " << out_path
      << "\n";
  return Status::OK();
}

// ---------------------------------------------------------------------------
// build
// ---------------------------------------------------------------------------

Status CmdBuild(CliFlags* flags, int argc, char** argv, std::ostream& out,
                bool* refused) {
  flags->Define("graph", "", "input edge-list file (text or .hgr binary)");
  flags->Define("directed", "false", "treat the text edge list as directed");
  flags->Define("weighted", "false", "read weights from the text edge list");
  flags->Define("mode", "hybrid", "hybrid | stepping | doubling");
  flags->Define("switch", "10", "hybrid switch iteration");
  flags->Define("threads", "0", "worker threads (0 = all cores)");
  flags->Define("order", "auto",
                "vertex order: auto | degree | inout | neighborhood | "
                "degeneracy | betweenness | separator | random");
  flags->Define("budget", "0", "time budget in seconds (0 = none)");
  flags->Define("out", "", "output index path");
  HOPDB_RETURN_NOT_OK(flags->Parse(argc, argv));
  if (flags->help_requested()) return Status::OK();

  const std::string graph_path = flags->GetString("graph");
  const std::string out_path = flags->GetString("out");
  if (graph_path.empty() || out_path.empty()) {
    return Status::InvalidArgument("build requires --graph and --out");
  }

  HOPDB_ASSIGN_OR_RETURN(const bool directed, flags->GetBool("directed"));
  HOPDB_ASSIGN_OR_RETURN(const bool weighted, flags->GetBool("weighted"));
  HopDbOptions options;
  HOPDB_ASSIGN_OR_RETURN(options.build.mode,
                         ParseMode(flags->GetString("mode")));
  HOPDB_RETURN_NOT_OK(GetUintFlag(*flags, "switch",
                                  &options.build.hybrid_switch_iteration));
  HOPDB_RETURN_NOT_OK(
      GetUintFlag(*flags, "threads", &options.build.num_threads));
  HOPDB_ASSIGN_OR_RETURN(options.build.time_budget_seconds,
                         flags->GetDouble("budget"));
  const std::string order_name = flags->GetString("order");
  std::optional<OrderStrategy> order;
  if (order_name != "auto") {
    HOPDB_ASSIGN_OR_RETURN(order, ParseOrder(order_name));
  }

  HOPDB_ASSIGN_OR_RETURN(
      CsrGraph graph,
      Input(LoadCsrGraph(graph_path, directed, weighted), refused));
  if (order.has_value()) {
    options.ranking = HopDbOptions::Ranking::kCustom;
    HOPDB_ASSIGN_OR_RETURN(options.custom_order, ComputeOrder(graph, *order));
  }

  // Build progress: one build_iteration event per rule iteration on
  // stderr. The build frees the graph once it is relabeled.
  const VertexId num_vertices = graph.num_vertices();
  const uint64_t num_edges = graph.num_edges();
  SetJsonLogMinLevel(JsonLogLevel::kInfo);
  Stopwatch watch;
  HOPDB_ASSIGN_OR_RETURN(HopDbIndex index,
                         HopDbIndex::Build(std::move(graph), options));
  const double seconds = watch.Seconds();
  HOPDB_RETURN_NOT_OK(index.Save(out_path));

  const BuildStats& stats = index.build_stats();
  out << "built index over |V|=" << num_vertices << " |E|=" << num_edges
      << "\n"
      << "  mode            " << flags->GetString("mode") << " (order "
      << order_name << ", threads "
      << (options.build.num_threads == 0
              ? std::string("auto")
              : std::to_string(options.build.num_threads))
      << ")\n"
      << "  iterations      " << stats.num_rule_iterations << "\n"
      << "  label entries   " << index.label_index().TotalEntries() << "\n"
      << "  avg |label|     " << index.AvgLabelSize() << "\n"
      << "  index size      " << index.PaperSizeBytes() << " bytes (paper "
      << "accounting)\n"
      << "  build time      " << seconds << " s\n"
      << "  saved to        " << out_path << "\n";
  return Status::OK();
}

// ---------------------------------------------------------------------------
// query
// ---------------------------------------------------------------------------

Status CmdQuery(CliFlags* flags, int argc, char** argv, std::ostream& out,
                bool* refused) {
  flags->Define("index", "", "index path (from hopdb_cli build)");
  flags->Define("src", "", "query source (with --dst)");
  flags->Define("dst", "", "query destination");
  flags->Define("random", "0", "run N random queries instead");
  flags->Define("seed", "7", "random query seed");
  HOPDB_RETURN_NOT_OK(flags->Parse(argc, argv));
  if (flags->help_requested()) return Status::OK();

  const std::string index_path = flags->GetString("index");
  if (index_path.empty()) {
    return Status::InvalidArgument("query requires --index");
  }
  HOPDB_ASSIGN_OR_RETURN(const uint64_t random_n, flags->GetUint("random"));
  HOPDB_ASSIGN_OR_RETURN(const uint64_t seed, flags->GetUint("seed"));
  uint64_t src = 0, dst = 0;
  if (random_n == 0) {
    if (flags->GetString("src").empty() || flags->GetString("dst").empty()) {
      return Status::InvalidArgument(
          "query requires --src and --dst (or --random N)");
    }
    HOPDB_ASSIGN_OR_RETURN(src, flags->GetUint("src"));
    HOPDB_ASSIGN_OR_RETURN(dst, flags->GetUint("dst"));
  }
  HOPDB_ASSIGN_OR_RETURN(HopDbIndex index,
                         Input(HopDbIndex::Load(index_path), refused));

  auto print_one = [&](VertexId s, VertexId t) {
    const Distance d = index.Query(s, t);
    out << "dist(" << s << ", " << t << ") = ";
    if (d == kInfDistance) {
      out << "INF\n";
    } else {
      out << d << "\n";
    }
  };

  if (random_n > 0) {
    const VertexId n = index.num_vertices();
    if (n == 0) {
      return Status::InvalidArgument("--random on an index with no vertices");
    }
    Rng rng(seed);
    Stopwatch watch;
    uint64_t reachable = 0;
    for (uint64_t i = 0; i < random_n; ++i) {
      const VertexId s = static_cast<VertexId>(rng.Below(n));
      const VertexId t = static_cast<VertexId>(rng.Below(n));
      if (index.Query(s, t) != kInfDistance) ++reachable;
    }
    const double micros = watch.Seconds() * 1e6 / random_n;
    out << random_n << " random queries: " << micros << " us/query, "
        << reachable << " reachable\n";
    return Status::OK();
  }

  if (src >= index.num_vertices() || dst >= index.num_vertices()) {
    return Status::InvalidArgument("vertex id out of range");
  }
  print_one(static_cast<VertexId>(src), static_cast<VertexId>(dst));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

Status CmdStats(CliFlags* flags, int argc, char** argv, std::ostream& out,
                bool* refused) {
  flags->Define("index", "", "index path (from hopdb_cli build)");
  HOPDB_RETURN_NOT_OK(flags->Parse(argc, argv));
  if (flags->help_requested()) return Status::OK();
  const std::string index_path = flags->GetString("index");
  if (index_path.empty()) {
    return Status::InvalidArgument("stats requires --index");
  }
  HOPDB_ASSIGN_OR_RETURN(HopDbIndex index,
                         Input(HopDbIndex::Load(index_path), refused));
  HOPDB_ASSIGN_OR_RETURN(const uint64_t file_bytes, FileSizeBytes(index_path));
  const TwoHopIndex& labels = index.label_index();
  const double bytes_per_entry =
      labels.TotalEntries() == 0
          ? 0.0
          : static_cast<double>(file_bytes) /
                static_cast<double>(labels.TotalEntries());

  out << "index " << index_path << "\n"
      << "  vertices        " << labels.num_vertices() << "\n"
      << "  directed        " << (labels.directed() ? "yes" : "no") << "\n"
      << "  label entries   " << labels.TotalEntries() << "\n"
      << "  avg |label|     " << labels.AvgLabelSize() << "\n"
      << "  memory size     " << labels.SizeBytes() << " bytes\n"
      << "  paper size      " << labels.PaperSizeBytes() << " bytes\n"
      << "  file size       " << file_bytes << " bytes ("
      << FormatDouble(bytes_per_entry, 2) << " bytes/entry)\n";

  // Table 7's "top vertices coverage": the smallest pivot prefix (by
  // rank) covering 70 / 80 / 90% of all entries.
  const std::vector<uint64_t> per_pivot = labels.EntriesPerPivot();
  const uint64_t total = labels.TotalEntries();
  if (total > 0) {
    uint64_t covered = 0;
    size_t next_threshold = 0;
    const double thresholds[] = {0.7, 0.8, 0.9};
    for (size_t p = 0; p < per_pivot.size() && next_threshold < 3; ++p) {
      covered += per_pivot[p];
      while (next_threshold < 3 &&
             static_cast<double>(covered) >=
                 thresholds[next_threshold] * static_cast<double>(total)) {
        out << "  top " << thresholds[next_threshold] * 100
            << "% coverage  " << (100.0 * (p + 1)) / per_pivot.size()
            << "% of vertices\n";
        ++next_threshold;
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// convert
// ---------------------------------------------------------------------------

Status CmdConvert(CliFlags* flags, int argc, char** argv, std::ostream& out,
                  bool* refused) {
  flags->Define("in", "", "input index (HLI1, from hopdb_cli build)");
  flags->Define("out", "", "output HLI2 (memory-mappable) index path");
  flags->Define("verify", "true",
                "re-open the output, checksum the label arenas, and "
                "cross-check sample queries against the input");
  flags->Define("samples", "1000",
                "random query pairs cross-checked with --verify");
  flags->Define("seed", "7", "verification sampling seed");
  HOPDB_RETURN_NOT_OK(flags->Parse(argc, argv));
  if (flags->help_requested()) return Status::OK();

  const std::string in_path = flags->GetString("in");
  const std::string out_path = flags->GetString("out");
  if (in_path.empty() || out_path.empty()) {
    return Status::InvalidArgument("convert requires --in and --out");
  }
  HOPDB_ASSIGN_OR_RETURN(const bool verify, flags->GetBool("verify"));
  HOPDB_ASSIGN_OR_RETURN(const uint64_t samples, flags->GetUint("samples"));
  HOPDB_ASSIGN_OR_RETURN(const uint64_t seed, flags->GetUint("seed"));
  HOPDB_ASSIGN_OR_RETURN(HopDbIndex index,
                         Input(HopDbIndex::Load(in_path), refused));
  HOPDB_RETURN_NOT_OK(
      MappedIndex::Write(index.label_index(), index.ranking(), out_path));
  HOPDB_ASSIGN_OR_RETURN(const uint64_t in_bytes, FileSizeBytes(in_path));
  HOPDB_ASSIGN_OR_RETURN(const uint64_t out_bytes, FileSizeBytes(out_path));

  if (verify) {
    MappedIndex::OpenOptions options;
    options.verify_arenas = true;
    HOPDB_ASSIGN_OR_RETURN(MappedIndex mapped,
                           MappedIndex::Open(out_path, options));
    Rng rng(seed);
    const VertexId n = index.num_vertices();
    const uint64_t sampled = n > 0 ? samples : 0;  // no pair to draw
    for (uint64_t i = 0; i < sampled; ++i) {
      const VertexId s = static_cast<VertexId>(rng.Below(n));
      const VertexId t = static_cast<VertexId>(rng.Below(n));
      if (mapped.Query(s, t) != index.Query(s, t)) {
        return Status::Internal(
            "converted index disagrees with input on dist(" +
            std::to_string(s) + ", " + std::to_string(t) + ")");
      }
    }
    out << "verified arena checksum + " << sampled
        << " sampled queries against " << in_path << "\n";
  }
  out << "converted " << in_path << " -> " << out_path << " (HLI2)\n"
      << "  vertices        " << index.num_vertices() << "\n"
      << "  label entries   " << index.label_index().TotalEntries() << "\n"
      << "  input size      " << in_bytes << " bytes\n"
      << "  output size     " << out_bytes
      << " bytes (self-contained, mmap-servable)\n";
  return Status::OK();
}

// ---------------------------------------------------------------------------
// update
// ---------------------------------------------------------------------------

/// Parses an update script whole (all-or-nothing on syntax errors),
/// translating original ids into the index's internal rank space.
Result<std::vector<UpdateOp>> ReadUpdateOps(const std::string& path,
                                            const RankMapping& ranking) {
  std::string script;
  HOPDB_RETURN_NOT_OK(ReadFileToString(path, &script));
  std::vector<UpdateOp> ops;
  size_t pos = 0, line_no = 0;
  while (pos < script.size()) {
    size_t end = script.find('\n', pos);
    if (end == std::string::npos) end = script.size();
    const std::string line = script.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    Result<UpdateOp> parsed = ParseUpdateOpLine(line);
    if (parsed.status().code() == StatusCode::kNotFound) continue;
    if (!parsed.ok()) {
      return Status::InvalidArgument("ops line " + std::to_string(line_no) +
                                     ": " + parsed.status().message());
    }
    UpdateOp op = std::move(parsed).value();
    if (op.u >= ranking.size() || op.v >= ranking.size()) {
      return Status::InvalidArgument(
          "ops line " + std::to_string(line_no) + ": vertex id out of "
          "range (|V|=" + std::to_string(ranking.size()) + ")");
    }
    op.u = ranking.ToInternal(op.u);
    op.v = ranking.ToInternal(op.v);
    ops.push_back(op);
  }
  return ops;
}

Status CmdUpdate(CliFlags* flags, int argc, char** argv, std::ostream& out,
                 bool* refused) {
  flags->Define("index", "", "index path (from hopdb_cli build)");
  flags->Define("graph", "",
                "edge-list file the index was built from (text or .hgr)");
  flags->Define("ops", "",
                "update script: one 'ADDEDGE u v [w]' / 'DELEDGE u v' per "
                "line ('#' comments), ids in the graph's original space");
  flags->Define("out", "",
                "output index path (default: overwrite --index)");
  flags->Define("out-graph", "",
                "also write the updated graph here (so the next update "
                "run starts from matching inputs)");
  flags->Define("frontier-fraction", "0.5",
                "fall back to a full rebuild when one op's affected "
                "frontier exceeds this fraction of |V| (0 disables)");
  HOPDB_RETURN_NOT_OK(flags->Parse(argc, argv));
  if (flags->help_requested()) return Status::OK();

  const std::string index_path = flags->GetString("index");
  const std::string graph_path = flags->GetString("graph");
  const std::string ops_path = flags->GetString("ops");
  if (index_path.empty() || graph_path.empty() || ops_path.empty()) {
    return Status::InvalidArgument(
        "update requires --index, --graph, and --ops");
  }
  const std::string out_path =
      flags->GetString("out").empty() ? index_path : flags->GetString("out");
  UpdateOptions options;
  HOPDB_ASSIGN_OR_RETURN(options.rebuild_frontier_fraction,
                         flags->GetDouble("frontier-fraction"));

  HOPDB_ASSIGN_OR_RETURN(HopDbIndex index,
                         Input(HopDbIndex::Load(index_path), refused));
  const RankMapping& ranking = index.ranking();
  // Frozen in the index's rank ids as it is read; a graph over another
  // vertex count (vertex additions need a rebuild) is refused.
  DynamicGraph dynamic;
  {
    HOPDB_ASSIGN_OR_RETURN(
        CsrGraph ranked,
        Input(LoadCsrGraph(graph_path, index.directed(),
                           /*read_weights=*/true, &ranking),
              refused));
    dynamic = DynamicGraph::FromGraph(ranked);
  }

  HOPDB_ASSIGN_OR_RETURN(const std::vector<UpdateOp> ops,
                         Input(ReadUpdateOps(ops_path, ranking), refused));

  Stopwatch watch;
  IncrementalUpdater updater(&dynamic, &index.mutable_label_index(),
                             options);
  HOPDB_RETURN_NOT_OK(updater.ApplyBatch(ops));
  const double seconds = watch.Seconds();
  HOPDB_RETURN_NOT_OK(index.Save(out_path));

  const std::string out_graph = flags->GetString("out-graph");
  if (!out_graph.empty()) {
    // ToEdgeList speaks internal ids; translate back before writing.
    const EdgeList internal = dynamic.ToEdgeList();
    EdgeList updated(internal.num_vertices(), internal.directed());
    updated.set_weighted(internal.weighted());
    for (const Edge& e : internal.edges()) {
      updated.Add(ranking.ToOriginal(e.src), ranking.ToOriginal(e.dst),
                  e.weight);
    }
    updated.Normalize();
    HOPDB_RETURN_NOT_OK(IsBinaryGraphPath(out_graph)
                            ? WriteBinaryGraph(updated, out_graph)
                            : WriteTextEdgeList(updated, out_graph));
  }

  const UpdateStats& stats = updater.stats();
  out << "applied " << stats.ops_applied << " updates ("
      << stats.inserts << " inserts, " << stats.deletes << " deletes, "
      << stats.reweights << " reweights, " << stats.ops_noop
      << " no-ops)\n"
      << "  repairs         " << stats.repairs << " (+"
      << stats.full_rebuilds << " rebuild fallbacks)\n"
      << "  entries         +" << stats.entries_added << " ~"
      << stats.entries_updated << " -" << stats.entries_removed << "\n"
      << "  label entries   " << index.label_index().TotalEntries() << "\n"
      << "  update time     " << seconds << " s\n"
      << "  saved to        " << out_path << "\n";
  if (!out_graph.empty()) {
    out << "  updated graph   " << out_graph << "\n";
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// One "--index" occurrence: "PATH" (the default index) or "NAME=PATH"
/// (attached under NAME, servable via USE/ATTACH-style routing).
struct IndexSpec {
  std::string name;  // empty = default index
  std::string path;
};

Result<std::vector<IndexSpec>> ParseIndexSpecs(
    const std::vector<std::string>& values) {
  std::vector<IndexSpec> specs;
  size_t defaults = 0;
  for (const std::string& value : values) {
    IndexSpec spec;
    const size_t eq = value.find('=');
    if (eq == std::string::npos) {
      spec.path = value;
    } else {
      spec.name = value.substr(0, eq);
      spec.path = value.substr(eq + 1);
      if (spec.name == kDefaultIndexName) spec.name.clear();
      if (!spec.name.empty()) {
        HOPDB_RETURN_NOT_OK(ValidateIndexName(spec.name));
      }
    }
    if (spec.path.empty()) {
      return Status::InvalidArgument("--index '" + value +
                                     "' has an empty path");
    }
    // Fail duplicates here, before the server binds its port — the
    // registry would reject the second attach anyway, but mid-startup
    // and with a runtime-verb-flavored message.
    for (const IndexSpec& prior : specs) {
      if (!spec.name.empty() && prior.name == spec.name) {
        return Status::InvalidArgument("--index name '" + spec.name +
                                       "' given more than once");
      }
    }
    if (spec.name.empty()) ++defaults;
    specs.push_back(std::move(spec));
  }
  if (defaults != 1) {
    return Status::InvalidArgument(
        "serve requires exactly one default --index PATH (plus any number "
        "of --index NAME=PATH), got " + std::to_string(defaults) +
        " defaults");
  }
  // Serve the default first so Start() sees it before any attachment.
  std::stable_partition(specs.begin(), specs.end(),
                        [](const IndexSpec& s) { return s.name.empty(); });
  return specs;
}

Status CmdServe(CliFlags* flags, int argc, char** argv, std::ostream& out,
                bool* refused) {
  flags->DefineRepeatable(
      "index",
      "index to serve: PATH (the default index) or NAME=PATH (additional "
      "named index; repeat for more). HLI2 files are mmap-served");
  flags->DefineRepeatable(
      "graph",
      "edge-list file backing an index for online updates: PATH (the "
      "default index) or NAME=PATH; repeat per index. Enables "
      "ADDEDGE/DELEDGE/COMMIT on heap-served indexes");
  flags->Define("host", "127.0.0.1", "numeric IPv4 listen address");
  flags->Define("port", "0", "listen port (0 = pick an ephemeral port)");
  flags->Define("threads", "0", "query worker threads (0 = all cores)");
  flags->Define("io-threads", "0",
                "epoll I/O threads (0 = min(4, cores))");
  flags->Define("cache-capacity", "65536",
                "result cache entries per snapshot (0 disables)");
  flags->Define("hot-hub-k", "0",
                "dense hot-hub distance table over the top-k ranked "
                "pivots, built per published snapshot (0 disables; off by "
                "default: slower than the plain merge in every "
                "measurement, and 13 MB at k=64 on 50k vertices)");
  flags->Define("queue-capacity", "1024",
                "bounded request queue length (requests beyond it are "
                "shed with ERR BUSY)");
  flags->Define("backlog", "1024", "listen(2) pending-connection backlog");
  flags->Define("max-inflight", "128",
                "max unanswered pipelined requests per connection before "
                "its socket pauses");
  flags->Define("batch", "32", "max requests a worker takes per wakeup");
  flags->Define("trace-sample-rate", "0.01",
                "fraction of requests recorded into the TRACE LAST ring "
                "(0 disables sampling; per-stage metrics are always on)");
  flags->Define("trace-ring", "1024",
                "capacity of the sampled-trace ring TRACE LAST reads");
  flags->Define("slow-query-us", "0",
                "emit a JSON slow_query log line for requests at or above "
                "this accepted-to-written latency in microseconds (0 off)");
  flags->Define("duration", "0",
                "seconds to serve before exiting (0 = until killed)");
  HOPDB_RETURN_NOT_OK(flags->Parse(argc, argv));
  if (flags->help_requested()) return Status::OK();

  const std::vector<std::string>& index_values = flags->GetStrings("index");
  if (index_values.empty()) {
    return Status::InvalidArgument(
        "serve requires --index PATH (or --index NAME=PATH, repeatable)");
  }
  HOPDB_ASSIGN_OR_RETURN(std::vector<IndexSpec> specs,
                         ParseIndexSpecs(index_values));

  ServerOptions options;
  options.host = flags->GetString("host");
  HOPDB_RETURN_NOT_OK(GetUintFlag(*flags, "port", &options.port));
  HOPDB_RETURN_NOT_OK(GetUintFlag(*flags, "threads", &options.num_workers));
  HOPDB_RETURN_NOT_OK(
      GetUintFlag(*flags, "io-threads", &options.num_io_threads));
  HOPDB_RETURN_NOT_OK(
      GetUintFlag(*flags, "cache-capacity", &options.cache_capacity));
  HOPDB_RETURN_NOT_OK(GetUintFlag(*flags, "hot-hub-k", &options.hot_hub_k));
  HOPDB_RETURN_NOT_OK(
      GetUintFlag(*flags, "queue-capacity", &options.queue_capacity));
  HOPDB_RETURN_NOT_OK(GetUintFlag(*flags, "backlog", &options.listen_backlog));
  HOPDB_RETURN_NOT_OK(
      GetUintFlag(*flags, "max-inflight", &options.max_inflight_per_conn));
  HOPDB_RETURN_NOT_OK(GetUintFlag(*flags, "batch", &options.max_micro_batch));
  HOPDB_ASSIGN_OR_RETURN(options.trace_sample_rate,
                         flags->GetDouble("trace-sample-rate"));
  HOPDB_RETURN_NOT_OK(
      GetUintFlag(*flags, "trace-ring", &options.trace_ring_capacity));
  HOPDB_RETURN_NOT_OK(
      GetUintFlag(*flags, "slow-query-us", &options.slow_query_us));
  HOPDB_ASSIGN_OR_RETURN(const double duration, flags->GetDouble("duration"));
  // sleep_for converts to an integral count, so a duration past the cap
  // (say 1e300, which is finite and parses) would overflow it.
  constexpr double kMaxServeSeconds = 365.0 * 24 * 3600;
  if (!(duration >= 0) || duration > kMaxServeSeconds) {
    return Status::InvalidArgument(
        "flag --duration wants seconds in [0, 31536000] (one year), got '" +
        flags->GetString("duration") + "'");
  }
  options.source_path = specs[0].path;

  // A foreground server wants its lifecycle events (start/stop,
  // attach/detach/reload) on stderr, not just warnings.
  SetJsonLogMinLevel(JsonLogLevel::kInfo);

  // --graph values are parsed up front: the startup snapshot loads need
  // to know their build graphs so heap-backed indexes answer PATH from
  // the first request, not only after a RELOAD.
  std::vector<std::pair<std::string, std::string>> graphs;
  std::string default_graph;
  for (const std::string& value : flags->GetStrings("graph")) {
    const size_t eq = value.find('=');
    const std::string name =
        eq == std::string::npos ? std::string() : value.substr(0, eq);
    const std::string path =
        eq == std::string::npos ? value : value.substr(eq + 1);
    if (path.empty()) {
      return Status::InvalidArgument("--graph '" + value +
                                     "' has an empty path");
    }
    if (name.empty() || name == kDefaultIndexName) default_graph = path;
    graphs.emplace_back(name, path);
  }

  // The default index loads by file magic: HLI2 maps zero-copy, HLI1
  // deserializes onto the heap.
  HOPDB_ASSIGN_OR_RETURN(
      std::shared_ptr<const ServingSnapshot> snapshot,
      Input(LoadServingSnapshot(specs[0].path, options.cache_capacity,
                                options.hot_hub_k, default_graph),
            refused));
  HOPDB_ASSIGN_OR_RETURN(std::unique_ptr<DistanceServer> server,
                         DistanceServer::Start(std::move(snapshot), options));
  // Graphs register before the secondary attaches so those snapshots
  // pick up their path graphs too.
  for (const auto& [name, path] : graphs) {
    HOPDB_RETURN_NOT_OK(
        Input(server->RegisterUpdateGraph(name, path), refused));
  }
  for (size_t i = 1; i < specs.size(); ++i) {
    HOPDB_RETURN_NOT_OK(
        Input(server->AttachIndex(specs[i].name, specs[i].path), refused));
  }

  const std::shared_ptr<const ServingSnapshot> def = server->snapshot();
  out << "serving " << specs[0].path << " on " << options.host << ":"
      << server->port() << " (|V|=" << def->num_vertices() << ", mode="
      << def->map_mode()
      << ", workers=" << (options.num_workers == 0 ? std::string("auto")
                                                   : std::to_string(
                                                         options.num_workers))
      << ", cache=" << options.cache_capacity << ")\n";
  for (size_t i = 1; i < specs.size(); ++i) {
    const std::shared_ptr<const ServingSnapshot> snap =
        server->registry().Find(specs[i].name);
    // The server is already accepting: a fast client can DETACH between
    // the attach above and this announcement lookup.
    if (snap == nullptr) continue;
    out << "  attached " << specs[i].name << " = " << specs[i].path
        << " (|V|=" << snap->num_vertices() << ", mode=" << snap->map_mode()
        << ")\n";
  }
  out.flush();

  if (duration > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(duration));
    server->Stop();
    out << "served " << server->metrics().requests() << " requests ("
        << server->metrics().errors() << " errors) over "
        << server->connections_accepted() << " connections\n";
    return Status::OK();
  }
  // Serve until the process is killed.
  for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
}

// ---------------------------------------------------------------------------
// client
// ---------------------------------------------------------------------------

Status CmdClient(CliFlags* flags, int argc, char** argv, std::ostream& out) {
  flags->Define("host", "127.0.0.1", "server address (numeric IPv4)");
  flags->Define("port", "0", "server port");
  flags->Define("cmd", "",
                "single protocol line to send (default: read lines from "
                "stdin until EOF)");
  flags->Define("protocol", "v1",
                "wire protocol: v1 (ASCII lines) or v2 (binary frames; "
                "requests are still typed as v1 lines, responses printed "
                "in v1 form)");
  HOPDB_RETURN_NOT_OK(flags->Parse(argc, argv));
  if (flags->help_requested()) return Status::OK();

  uint16_t port = 0;
  HOPDB_RETURN_NOT_OK(GetUintFlag(*flags, "port", &port));
  if (port == 0) {
    return Status::InvalidArgument("client requires --port");
  }
  const std::string protocol = flags->GetString("protocol");
  if (protocol != "v1" && protocol != "v2") {
    return Status::InvalidArgument("--protocol must be v1 or v2");
  }
  const bool v2 = protocol == "v2";
  HOPDB_ASSIGN_OR_RETURN(
      DistanceClient client,
      DistanceClient::Connect(flags->GetString("host"), port,
                              v2 ? DistanceClient::Protocol::kV2
                                 : DistanceClient::Protocol::kV1));

  // One line in, one line out, on either framing: v2 round-trips the
  // parsed request as a binary frame and renders the response in the v1
  // form, so the two protocols are interchangeable at this prompt.
  auto round_trip = [&](const std::string& line) -> Result<std::string> {
    if (!v2) return client.RoundTrip(line);
    HOPDB_ASSIGN_OR_RETURN(Request request, ParseRequest(line));
    HOPDB_ASSIGN_OR_RETURN(WireResponse response, client.Call(request));
    // Blob payloads (METRICS, TRACE) print as their body, matching what
    // RoundTrip returns on a v1 connection.
    if (response.status == WireStatus::kOk &&
        response.payload == WirePayload::kBlob) {
      return response.text;
    }
    return EncodeResponseV1(response);
  };
  auto print_response = [&](std::string response) {
    // Blob bodies end in their own newline; avoid printing a blank line.
    while (!response.empty() && response.back() == '\n') response.pop_back();
    out << response << "\n";
  };

  const std::string cmd = flags->GetString("cmd");
  if (!cmd.empty()) {
    HOPDB_ASSIGN_OR_RETURN(std::string response, round_trip(cmd));
    print_response(std::move(response));
    return Status::OK();
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    if (TrimString(line).empty()) continue;
    HOPDB_ASSIGN_OR_RETURN(std::string response, round_trip(line));
    print_response(std::move(response));
    out.flush();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// eval
// ---------------------------------------------------------------------------

Status CmdEval(CliFlags* flags, int argc, char** argv, std::ostream& out,
               bool* refused) {
  flags->Define("spec", "",
                "workload spec file (see src/eval/harness.h for the "
                "grammar); default: built-in graph-family sweep");
  flags->Define("ci", "false",
                "CI mode: shrink the built-in spec, and exit non-zero "
                "when an expectation fails");
  flags->Define("report", "", "write the Markdown report to this path");
  flags->Define("json", "", "write the JSON report to this path");
  flags->Define("work-dir", ".hopdb_eval",
                "scratch directory for on-disk index variants");
  flags->Define("data-dir", "",
                "directory searched for real '<name>.txt' edge lists");
  flags->Define("scale", "1",
                "extra |V| multiplier over the spec, in (0, 100]");
  flags->Define("print-spec", "false",
                "print the effective spec text and exit");
  HOPDB_RETURN_NOT_OK(flags->Parse(argc, argv));
  if (flags->help_requested()) return Status::OK();

  HOPDB_ASSIGN_OR_RETURN(const bool ci, flags->GetBool("ci"));
  HOPDB_ASSIGN_OR_RETURN(const bool print_spec, flags->GetBool("print-spec"));
  EvalOptions options;
  options.work_dir = flags->GetString("work-dir");
  options.data_dir = flags->GetString("data-dir");
  HOPDB_ASSIGN_OR_RETURN(options.scale, flags->GetDouble("scale"));
  // The spec's scale= has the same cap, which keeps a dataset's
  // n x scale inside VertexId.
  if (!(options.scale > 0) || options.scale > 100) {
    return Status::InvalidArgument(
        "flag --scale wants a number in (0, 100], got '" +
        flags->GetString("scale") + "'");
  }

  std::string spec_text;
  const std::string spec_path = flags->GetString("spec");
  if (spec_path.empty()) {
    spec_text = DefaultEvalSpecText(ci);
  } else {
    HOPDB_RETURN_NOT_OK(ReadFileToString(spec_path, &spec_text));
  }
  if (print_spec) {
    out << spec_text;
    return Status::OK();
  }
  HOPDB_ASSIGN_OR_RETURN(EvalSpec spec,
                         Input(ParseEvalSpec(spec_text), refused));

  HOPDB_ASSIGN_OR_RETURN(EvalReport report, RunEval(spec, options));

  const std::string markdown = RenderEvalMarkdown(report);
  const std::string report_path = flags->GetString("report");
  if (!report_path.empty()) {
    HOPDB_RETURN_NOT_OK(WriteStringToFile(report_path, markdown));
    out << "report -> " << report_path << "\n";
  } else {
    out << markdown;
  }
  const std::string json_path = flags->GetString("json");
  if (!json_path.empty()) {
    HOPDB_RETURN_NOT_OK(WriteStringToFile(json_path, RenderEvalJson(report)));
    out << "json -> " << json_path << "\n";
  }
  for (const EvalExpectation& e : report.expectations) {
    out << (e.pass ? "PASS " : "FAIL ") << e.name << " = "
        << FormatDouble(e.value, 2) << " (expect [" +
               FormatDouble(e.min_value, 0) + ", " +
               FormatDouble(e.max_value, 0) + "])\n";
  }
  if (!report.AllPass()) {
    // --ci turns an out-of-band number into a hard failure; interactive
    // runs still see the FAIL lines but keep their report.
    if (ci) return Status::FailedPrecondition("eval expectations failed");
    out << "warning: expectations failed (use --ci to make this fatal)\n";
  }
  return Status::OK();
}

void PrintUsage(std::ostream& out) {
  out << "hopdb_cli — hop-doubling 2-hop distance index tool\n"
         "\n"
         "usage: hopdb_cli <command> [flags]\n"
         "\n"
         "commands:\n"
         "  gen     generate a synthetic graph (--type glp|ba|er --n N\n"
         "          --avg-degree D --directed --weighted --seed S --out F)\n"
         "  build   build an index (--graph F --directed --weighted\n"
         "          --mode hybrid|stepping|doubling --order auto|degree|...\n"
         "          --threads T (0 = all cores, the default) --out F)\n"
         "  convert convert an index to the mmap-servable HLI2 format\n"
         "          (--in F --out F.hli2 [--verify true|false])\n"
         "  query   query an index (--index F --src S --dst T | --random N)\n"
         "  update  apply edge updates to an index offline (--index F\n"
         "          --graph F --ops F [--out F] [--out-graph F]); the ops\n"
         "          file holds ADDEDGE u v [w] / DELEDGE u v lines\n"
         "  stats   label statistics of an index (--index F)\n"
         "  serve   serve indexes over TCP (--index F | --index NAME=F,\n"
         "          repeatable; --graph F | --graph NAME=F enables online\n"
         "          updates; --port P --threads T (0 = all cores, the\n"
         "          default) --io-threads I --cache-capacity C --backlog B\n"
         "          --max-inflight M --trace-sample-rate R --slow-query-us\n"
         "          U); HLI2 files are served zero-copy from the page cache;\n"
         "          protocol: DIST/BATCH/KNN/WITHIN/REACH/PATH/PING/STATS/\n"
         "          METRICS/TRACE/RELOAD/ATTACH/DETACH/USE/ADDEDGE/DELEDGE/\n"
         "          COMMIT (ASCII lines, or the v2 binary framing after the\n"
         "          magic)\n"
         "  client  connect to a server (--host H --port P [--cmd LINE]\n"
         "          [--protocol v1|v2])\n"
         "  eval    run the unified eval harness: build every index\n"
         "          variant (heap/blocked) over the spec's graphs, time\n"
         "          the query workloads (dist/batch/knn/within/reach/\n"
         "          path), oracle-verify, and report\n"
         "          ([--spec F] [--ci] [--report F.md] [--json F.json]\n"
         "          [--work-dir D] [--data-dir D] [--scale X])\n"
         "  help    this text\n"
         "\n"
         "Run 'hopdb_cli <command> --help' for the full flag list.\n";
}

}  // namespace

int RunCli(int argc, char** argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) {
    PrintUsage(err);
    return 1;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help") {
    PrintUsage(out);
    return 0;
  }

  // Shift argv so the subcommand's flags parse from its own name.
  CliFlags flags;
  Status status;
  bool input_refused = false;
  const int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  if (command == "gen") {
    status = CmdGen(&flags, sub_argc, sub_argv, out);
  } else if (command == "build") {
    status = CmdBuild(&flags, sub_argc, sub_argv, out, &input_refused);
  } else if (command == "convert") {
    status = CmdConvert(&flags, sub_argc, sub_argv, out, &input_refused);
  } else if (command == "query") {
    status = CmdQuery(&flags, sub_argc, sub_argv, out, &input_refused);
  } else if (command == "update") {
    status = CmdUpdate(&flags, sub_argc, sub_argv, out, &input_refused);
  } else if (command == "stats") {
    status = CmdStats(&flags, sub_argc, sub_argv, out, &input_refused);
  } else if (command == "serve") {
    status = CmdServe(&flags, sub_argc, sub_argv, out, &input_refused);
  } else if (command == "client") {
    status = CmdClient(&flags, sub_argc, sub_argv, out);
  } else if (command == "eval") {
    status = CmdEval(&flags, sub_argc, sub_argv, out, &input_refused);
  } else {
    err << "unknown command '" << command << "'\n";
    PrintUsage(err);
    return 1;
  }
  if (flags.help_requested()) {
    out << flags.Usage("hopdb_cli " + command);
    return 0;
  }
  if (!status.ok()) {
    // Single usage-printing error path: every subcommand failure reports
    // the status, and flag mistakes additionally get the relevant flag
    // table so the fix is visible without a second invocation. A refused
    // input file is no flag mistake.
    err << "hopdb_cli " << command << ": " << status.ToString() << "\n";
    if (status.code() == StatusCode::kInvalidArgument && !input_refused) {
      err << "\n" << flags.Usage("usage: hopdb_cli " + command + " [flags]");
    }
    return 1;
  }
  return 0;
}

}  // namespace hopdb
