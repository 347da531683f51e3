// Query-path microbenchmarks (google-benchmark): per-query latency of
// HopDb labels, PLL labels, the disk-resident index, and index-free
// bidirectional search, plus the core label-intersection primitive. These are the per-operation counterparts of Table 6's
// aggregate query columns.

#include <benchmark/benchmark.h>

#include <memory>

#include "baselines/is_label.h"
#include "baselines/pll.h"
#include "eval/workload.h"
#include "gen/glp.h"
#include "graph/ranking.h"
#include "io/temp_dir.h"
#include "labeling/builder.h"
#include "labeling/disk_index.h"
#include "query/batch.h"
#include "query/knn.h"
#include "query/path.h"
#include "search/bidirectional.h"

namespace hopdb {
namespace {

constexpr VertexId kVertices = 20000;
constexpr size_t kPairs = 4096;

/// Shared lazily-built fixture: one scale-free graph, every index.
struct MicroContext {
  CsrGraph ranked;
  TwoHopIndex hopdb;
  TwoHopIndex pll;
  TempDir dir;
  DiskIndex disk;
  std::unique_ptr<IsLabelPartialIndex> is_label_partial;
  std::vector<QueryPair> pairs;

  static MicroContext& Get() {
    static MicroContext* ctx = Build();
    return *ctx;
  }

  static MicroContext* Build() {
    auto* ctx = new MicroContext();
    GlpOptions glp;
    glp.num_vertices = kVertices;
    glp.target_avg_degree = 8;
    glp.seed = 7;
    auto edges = GenerateGlp(glp);
    edges.status().CheckOK();
    auto graph = CsrGraph::FromEdgeList(*edges);
    graph.status().CheckOK();
    RankMapping mapping = ComputeRanking(*graph, RankingPolicy::kDegree);
    auto ranked = RelabelByRank(*graph, mapping);
    ranked.status().CheckOK();
    ctx->ranked = std::move(*ranked);

    auto hop = BuildHopLabeling(ctx->ranked, {});
    hop.status().CheckOK();
    ctx->hopdb = std::move(hop->index);

    auto pll = BuildPll(ctx->ranked);
    pll.status().CheckOK();
    ctx->pll = std::move(pll->index);

    auto dir = TempDir::Create("micro_query");
    dir.status().CheckOK();
    ctx->dir = std::move(*dir);
    std::string path = ctx->dir.File("idx.hdi");
    DiskIndex::Write(ctx->hopdb, path).CheckOK();
    auto disk = DiskIndex::Open(path);
    disk.status().CheckOK();
    ctx->disk = std::move(*disk);

    auto partial = BuildIsLabelPartial(ctx->ranked, /*num_levels=*/4);
    partial.status().CheckOK();
    auto partial_engine = IsLabelPartialIndex::Create(std::move(*partial));
    partial_engine.status().CheckOK();
    ctx->is_label_partial.reset(
        new IsLabelPartialIndex(std::move(*partial_engine)));

    ctx->pairs = RandomPairs(kVertices, kPairs, 99);
    return ctx;
  }
};

void BM_HopDbQuery(benchmark::State& state) {
  MicroContext& ctx = MicroContext::Get();
  size_t i = 0;
  for (auto _ : state) {
    const QueryPair& p = ctx.pairs[i++ & (kPairs - 1)];
    benchmark::DoNotOptimize(ctx.hopdb.Query(p.s, p.t));
  }
}
BENCHMARK(BM_HopDbQuery);

void BM_PllQuery(benchmark::State& state) {
  MicroContext& ctx = MicroContext::Get();
  size_t i = 0;
  for (auto _ : state) {
    const QueryPair& p = ctx.pairs[i++ & (kPairs - 1)];
    benchmark::DoNotOptimize(ctx.pll.Query(p.s, p.t));
  }
}
BENCHMARK(BM_PllQuery);

void BM_DiskQuery(benchmark::State& state) {
  MicroContext& ctx = MicroContext::Get();
  size_t i = 0;
  for (auto _ : state) {
    const QueryPair& p = ctx.pairs[i++ & (kPairs - 1)];
    benchmark::DoNotOptimize(ctx.disk.Query(p.s, p.t));
  }
}
BENCHMARK(BM_DiskQuery);

void BM_IsLabelPartialQuery(benchmark::State& state) {
  // The paper's Section 1 criticism quantified: IS-Label's deployment
  // mode answers via labels + bi-Dijkstra over the in-memory residual
  // graph — orders slower than a pure label lookup.
  MicroContext& ctx = MicroContext::Get();
  size_t i = 0;
  for (auto _ : state) {
    const QueryPair& p = ctx.pairs[i++ & (kPairs - 1)];
    benchmark::DoNotOptimize(ctx.is_label_partial->Query(p.s, p.t));
  }
  state.counters["gk_vertices"] =
      static_cast<double>(ctx.is_label_partial->residual_vertices());
  state.counters["gk_edges"] =
      static_cast<double>(ctx.is_label_partial->residual_edges());
}
BENCHMARK(BM_IsLabelPartialQuery);

void BM_KnnQuery(benchmark::State& state) {
  MicroContext& ctx = MicroContext::Get();
  static const KnnEngine* engine =
      new KnnEngine(ctx.hopdb.labels(), KnnEngine::Direction::kForward);
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const QueryPair& p = ctx.pairs[i++ & (kPairs - 1)];
    benchmark::DoNotOptimize(engine->Query(p.s, k));
  }
}
BENCHMARK(BM_KnnQuery)->Arg(10)->Arg(100);

void BM_OneToManyRow(benchmark::State& state) {
  // One source against a fixed 64-target panel via the bucket engine —
  // the centrality-workload inner loop.
  MicroContext& ctx = MicroContext::Get();
  static const OneToManyEngine* engine = [] {
    std::vector<VertexId> targets;
    for (VertexId v = 0; v < 64; ++v) targets.push_back(v * 311 % kVertices);
    return new OneToManyEngine(MicroContext::Get().hopdb.labels(),
                               std::move(targets));
  }();
  size_t i = 0;
  for (auto _ : state) {
    const QueryPair& p = ctx.pairs[i++ & (kPairs - 1)];
    benchmark::DoNotOptimize(engine->Query(p.s));
  }
}
BENCHMARK(BM_OneToManyRow);

void BM_PathReconstruction(benchmark::State& state) {
  MicroContext& ctx = MicroContext::Get();
  PathReconstructor recon(ctx.ranked, ctx.hopdb);
  size_t i = 0;
  uint64_t hops = 0, paths = 0;
  for (auto _ : state) {
    const QueryPair& p = ctx.pairs[i++ & (kPairs - 1)];
    auto path = recon.ShortestPath(p.s, p.t);
    if (path.ok()) {
      hops += path->size() - 1;
      ++paths;
    }
    benchmark::DoNotOptimize(path);
  }
  if (paths > 0) {
    state.counters["avg_hops"] =
        static_cast<double>(hops) / static_cast<double>(paths);
  }
}
BENCHMARK(BM_PathReconstruction);

void BM_HopDbQueryThroughput(benchmark::State& state) {
  // Concurrent read-only queries: the index is immutable, so throughput
  // should scale with threads until memory bandwidth saturates.
  MicroContext& ctx = MicroContext::Get();
  size_t i = static_cast<size_t>(state.thread_index()) * 7919;
  for (auto _ : state) {
    const QueryPair& p = ctx.pairs[i++ & (kPairs - 1)];
    benchmark::DoNotOptimize(ctx.hopdb.Query(p.s, p.t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HopDbQueryThroughput)->Threads(1)->Threads(4)->Threads(8);

void BM_BidirectionalQuery(benchmark::State& state) {
  MicroContext& ctx = MicroContext::Get();
  BidirectionalSearcher searcher(ctx.ranked);
  size_t i = 0;
  for (auto _ : state) {
    const QueryPair& p = ctx.pairs[i++ & (kPairs - 1)];
    benchmark::DoNotOptimize(searcher.Query(p.s, p.t));
  }
}
BENCHMARK(BM_BidirectionalQuery);

void BM_LabelIntersection(benchmark::State& state) {
  MicroContext& ctx = MicroContext::Get();
  // Pick two of the largest labels for a worst-ish case merge.
  VertexId a = kVertices - 1, b = kVertices - 2;
  for (VertexId v = 0; v < ctx.hopdb.num_vertices(); ++v) {
    if (ctx.hopdb.OutLabel(v).size() > ctx.hopdb.OutLabel(a).size()) {
      b = a;
      a = v;
    }
  }
  // IntersectLabels is the AoS merge: time it on AoS copies of the two
  // frozen labels.
  const LabelVector label_a(ctx.hopdb.OutLabel(a).begin(),
                            ctx.hopdb.OutLabel(a).end());
  const LabelVector label_b(ctx.hopdb.OutLabel(b).begin(),
                            ctx.hopdb.OutLabel(b).end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectLabels(label_a, label_b));
  }
  state.counters["label_a"] = static_cast<double>(label_a.size());
  state.counters["label_b"] = static_cast<double>(label_b.size());
}
BENCHMARK(BM_LabelIntersection);

void BM_BuildSmallIndex(benchmark::State& state) {
  GlpOptions glp;
  glp.num_vertices = static_cast<VertexId>(state.range(0));
  glp.target_avg_degree = 6;
  glp.seed = 5;
  auto edges = GenerateGlp(glp);
  edges.status().CheckOK();
  auto graph = CsrGraph::FromEdgeList(*edges);
  graph.status().CheckOK();
  auto ranked = RelabelByRank(
      *graph, ComputeRanking(*graph, RankingPolicy::kDegree));
  ranked.status().CheckOK();
  for (auto _ : state) {
    auto out = BuildHopLabeling(*ranked, {});
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph->num_edges()));
}
BENCHMARK(BM_BuildSmallIndex)->Arg(1000)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hopdb

BENCHMARK_MAIN();
