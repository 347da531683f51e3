// Table 6 reproduction: index size, indexing time, in-memory query time
// and disk query time for BIDIJ, IS-Label, PLL, and HopDb across the
// dataset registry (GLP stand-ins for the paper's SNAP/KONECT graphs —
// see docs/DATASETS.md). "—" marks DNF (budget or resource cap), matching
// the paper's 24-hour-cutoff dashes.
//
// Expected shape vs the paper:
//   * HopDb index is smaller than IS-Label's and no bigger than PLL's;
//   * HopDb/PLL memory queries run in ~0.1-10us, BIDIJ 2-4 orders slower;
//   * IS-Label DNFs (growth cap) on the denser graphs;
//   * disk queries cost ~2 label reads (ms on the paper's HDD).

#include <cstdio>

#include "baselines/is_label.h"
#include "baselines/pll.h"
#include "bench_common.h"
#include "eval/workload.h"
#include "io/temp_dir.h"
#include "labeling/disk_index.h"
#include "search/bidirectional.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hopdb {
namespace bench {
namespace {

struct MethodResult {
  Status status = Status::OK();
  double build_seconds = 0;
  uint64_t index_bytes = 0;
  double query_micros = -1;
  double disk_query_ms = -1;
  double disk_blocks_per_query = -1;
  uint64_t checksum = 0;
};

std::string MicrosOrDash(const MethodResult& r) {
  if (!r.status.ok() || r.query_micros < 0) return AsciiTable::Dash();
  return FormatDouble(r.query_micros, 2);
}

std::string MsOrDash(const MethodResult& r) {
  if (!r.status.ok() || r.disk_query_ms < 0) return AsciiTable::Dash();
  return FormatDouble(r.disk_query_ms, 3);
}

std::string SizeOrDash(const MethodResult& r) {
  if (!r.status.ok()) return AsciiTable::Dash();
  return Mb(r.index_bytes);
}

/// Measures disk-resident querying for an index: average ms/query and
/// logical blocks/query.
void MeasureDiskQueries(const TwoHopIndex& index, const TempDir& dir,
                        const std::string& name,
                        const std::vector<QueryPair>& pairs,
                        MethodResult* result) {
  std::string path = dir.File(name);
  if (!DiskIndex::Write(index, path).ok()) return;
  auto disk = DiskIndex::Open(path);
  if (!disk.ok()) return;
  size_t n = std::min<size_t>(pairs.size(), 2000);
  Stopwatch watch;
  for (size_t i = 0; i < n; ++i) {
    disk->Query(pairs[i].s, pairs[i].t);
  }
  result->disk_query_ms = watch.Seconds() * 1e3 / static_cast<double>(n);
  result->disk_blocks_per_query =
      static_cast<double>(disk->stats().blocks_read) /
      static_cast<double>(n);
}

int Run(int argc, char** argv) {
  BenchEnv env;
  env.flags.Define("is_budget", "180",
                   "IS-Label build budget in seconds (it needs longer than "
                   "the others; the paper gave every method 24h)");
  if (!InitBenchEnv(argc, argv,
                    "table6_performance: Table 6 — BIDIJ/IS-Label/PLL/HopDb "
                    "index size, build time, query time",
                    &env)) {
    return 0;
  }
  const double is_budget = env.flags.GetDouble("is_budget").ValueOrDie();
  auto scratch = TempDir::Create("table6");
  scratch.status().CheckOK();

  std::printf(
      "Table 6: performance comparison on complete 2-hop indexing\n"
      "(GLP stand-ins; paper-scale |V|,|E| in docs/DATASETS.md; budget "
      "%.0fs)\n\n",
      env.budget_seconds);

  AsciiTable table(
      {"G", "|V|", "|E|", "maxdeg", "|G|MB",
       "idx MB IS", "idx MB PLL", "idx MB HopDb",
       "build s IS", "build s PLL", "build s HopDb",
       "mem q us BIDIJ", "mem q us IS", "mem q us PLL", "mem q us HopDb",
       "disk q ms IS", "disk q ms HopDb", "blk/q HopDb"});

  std::string current_group;
  for (const DatasetSpec& spec : SelectDatasets(env)) {
    auto prepared = PrepareDataset(spec, env);
    if (!prepared.ok()) {
      std::fprintf(stderr, "skip %s: %s\n", spec.name.c_str(),
                   prepared.status().ToString().c_str());
      continue;
    }
    const CsrGraph& g = prepared->ranked;
    auto pairs = RandomPairs(g.num_vertices(), env.queries, 1234);

    // --- HopDb (hybrid, the paper's default).
    MethodResult hopdb;
    {
      BuildOptions opts;
      opts.time_budget_seconds = env.budget_seconds;
      auto out = BuildHopLabeling(g, opts);
      hopdb.status = out.status();
      if (out.ok()) {
        hopdb.build_seconds = out->stats.total_seconds;
        hopdb.index_bytes = out->index.PaperSizeBytes();
        QueryTiming t = TimeQueries(pairs, [&](VertexId s, VertexId t2) {
          return out->index.Query(s, t2);
        });
        hopdb.query_micros = t.avg_micros;
        hopdb.checksum = t.checksum;
        MeasureDiskQueries(out->index, *scratch, spec.name + ".hopdb",
                           pairs, &hopdb);
      }
    }

    // --- PLL.
    MethodResult pll;
    {
      PllOptions opts;
      opts.time_budget_seconds = env.budget_seconds;
      auto out = BuildPll(g, opts);
      pll.status = out.status();
      if (out.ok()) {
        pll.build_seconds = out->seconds;
        pll.index_bytes = out->index.PaperSizeBytes();
        QueryTiming t = TimeQueries(pairs, [&](VertexId s, VertexId t2) {
          return out->index.Query(s, t2);
        });
        pll.query_micros = t.avg_micros;
        pll.checksum = t.checksum;
      }
    }

    // --- IS-Label (full index; growth-capped like the paper's 24h cut).
    MethodResult is_label;
    {
      IsLabelOptions opts;
      opts.time_budget_seconds = is_budget;
      auto out = BuildIsLabel(g, opts);
      is_label.status = out.status();
      if (out.ok()) {
        is_label.build_seconds = out->seconds;
        is_label.index_bytes = out->index.PaperSizeBytes();
        QueryTiming t = TimeQueries(pairs, [&](VertexId s, VertexId t2) {
          return out->index.Query(s, t2);
        });
        is_label.query_micros = t.avg_micros;
        is_label.checksum = t.checksum;
        MeasureDiskQueries(out->index, *scratch, spec.name + ".isl", pairs,
                           &is_label);
      }
    }

    // --- BIDIJ (no index; cap the workload, searches are slow).
    MethodResult bidij;
    {
      BidirectionalSearcher searcher(g);
      size_t n = std::min<size_t>(pairs.size(), 1000);
      std::vector<QueryPair> sub(pairs.begin(), pairs.begin() + n);
      QueryTiming t = TimeQueries(sub, [&](VertexId s, VertexId t2) {
        return searcher.Query(s, t2);
      });
      bidij.query_micros = t.avg_micros;
      bidij.checksum = t.checksum;
    }

    // Cross-method answer consistency on the shared prefix is implied by
    // the test suite; checksums over identical workloads must agree.
    if (hopdb.status.ok() && pll.status.ok() &&
        hopdb.checksum != pll.checksum) {
      std::fprintf(stderr, "WARNING: %s HopDb/PLL checksum mismatch!\n",
                   spec.name.c_str());
    }

    if (spec.group != current_group) {
      current_group = spec.group;
      table.AddRow({"[" + current_group + "]", "", "", "", "", "", "", "",
                    "", "", "", "", "", "", "", "", "", ""});
    }
    table.AddRow({spec.name, HumanCount(g.num_vertices()),
                  HumanCount(g.num_edges()), HumanCount(prepared->max_degree),
                  Mb(prepared->graph_paper_bytes), SizeOrDash(is_label),
                  SizeOrDash(pll), SizeOrDash(hopdb),
                  SecondsOrDash(is_label.status, is_label.build_seconds),
                  SecondsOrDash(pll.status, pll.build_seconds),
                  SecondsOrDash(hopdb.status, hopdb.build_seconds),
                  FormatDouble(bidij.query_micros, 1), MicrosOrDash(is_label),
                  MicrosOrDash(pll), MicrosOrDash(hopdb), MsOrDash(is_label),
                  MsOrDash(hopdb),
                  hopdb.disk_blocks_per_query < 0
                      ? AsciiTable::Dash()
                      : FormatDouble(hopdb.disk_blocks_per_query, 2)});
  }
  table.Print();
  std::printf(
      "\nNotes: sizes use the paper's 5-byte-entry accounting; '—' = DNF\n"
      "(time budget or IS-Label growth cap, the paper's 24h-cut analogue).\n"
      "Disk query ms is page-cache-warm SSD; blk/q is the hardware-\n"
      "independent cost (the paper's 7200rpm times ≈ blk/q × seek time).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hopdb

int main(int argc, char** argv) { return hopdb::bench::Run(argc, argv); }
