#include "labeling/external_builder.h"

#include <gtest/gtest.h>

#include "eval/verify.h"
#include "gen/erdos_renyi.h"
#include "gen/glp.h"
#include "gen/small_graphs.h"
#include "gen/weights.h"
#include "graph/ranking.h"
#include "io/temp_dir.h"
#include "labeling/disk_index.h"

namespace hopdb {
namespace {

Result<CsrGraph> RankedGraph(const EdgeList& edges) {
  HOPDB_ASSIGN_OR_RETURN(CsrGraph g, CsrGraph::FromEdgeList(edges));
  RankMapping m = ComputeRanking(
      g, g.directed() ? RankingPolicy::kInOutProduct : RankingPolicy::kDegree);
  return RelabelByRank(g, m);
}

/// Asserts the external builder's labels are IDENTICAL (entry by entry)
/// to the in-memory builder's under the same options — the semantics
/// contract the two implementations share.
void ExpectSameIndex(const CsrGraph& ranked, const BuildOptions& build,
                     uint64_t memory_budget) {
  auto dir = TempDir::Create("extb");
  ASSERT_TRUE(dir.ok());
  ExternalBuildOptions ext;
  ext.build = build;
  ext.memory_budget_bytes = memory_budget;
  ext.scratch_dir = dir->path();
  auto ext_out = BuildHopLabelingExternal(ranked, ext);
  ASSERT_TRUE(ext_out.ok()) << ext_out.status();
  auto ext_idx = ext_out->ToMemory(ranked);
  ASSERT_TRUE(ext_idx.ok());

  auto mem_out = BuildHopLabeling(ranked, build);
  ASSERT_TRUE(mem_out.ok());

  ASSERT_EQ(ext_idx->TotalEntries(), mem_out->index.TotalEntries());
  for (VertexId v = 0; v < ranked.num_vertices(); ++v) {
    auto check = [&](const LabelView& a, const LabelView& b,
                     const char* side) {
      ASSERT_EQ(a.size(), b.size()) << side << " label of " << v;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pivot, b[i].pivot) << side << " label of " << v;
        EXPECT_EQ(a[i].dist, b[i].dist) << side << " label of " << v;
      }
    };
    check(ext_idx->OutLabel(v), mem_out->index.OutLabel(v), "out");
    check(ext_idx->InLabel(v), mem_out->index.InLabel(v), "in");
  }

  // And per-iteration survivor counts line up too.
  ASSERT_EQ(ext_out->stats.num_rule_iterations,
            mem_out->stats.num_rule_iterations);
  for (size_t i = 0; i < ext_out->stats.iterations.size(); ++i) {
    EXPECT_EQ(ext_out->stats.iterations[i].survivors,
              mem_out->stats.iterations[i].survivors)
        << "iteration " << i + 1;
    EXPECT_EQ(ext_out->stats.iterations[i].raw_candidates,
              mem_out->stats.iterations[i].raw_candidates)
        << "iteration " << i + 1;
  }
}

TEST(ExternalBuilderTest, MatchesInMemoryUndirected) {
  GlpOptions glp;
  glp.num_vertices = 400;
  glp.seed = 3;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  ExpectSameIndex(*ranked, BuildOptions{}, 64 << 20);
}

TEST(ExternalBuilderTest, MatchesInMemoryDirected) {
  auto g = CsrGraph::FromEdgeList(PaperExampleGraph());
  ASSERT_TRUE(g.ok());
  ExpectSameIndex(*g, BuildOptions{}, 64 << 20);
}

TEST(ExternalBuilderTest, MatchesInMemoryDirectedScaleFree) {
  GlpOptions glp;
  glp.num_vertices = 300;
  glp.seed = 5;
  auto edges = GenerateDirectedGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  ExpectSameIndex(*ranked, BuildOptions{}, 64 << 20);
}

TEST(ExternalBuilderTest, TinyMemoryBudgetSpillsAndStillMatches) {
  GlpOptions glp;
  glp.num_vertices = 300;
  glp.seed = 7;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  // 16 KB budget: external sort runs spill, pruning blocks are tiny.
  ExpectSameIndex(*ranked, BuildOptions{}, 16 << 10);
}

TEST(ExternalBuilderTest, WeightedGraphMatches) {
  EdgeList e = GridGraph(6, 6);
  AssignUniformWeights(&e, 1, 9, 11);
  auto ranked = RankedGraph(e);
  ASSERT_TRUE(ranked.ok());
  ExpectSameIndex(*ranked, BuildOptions{}, 1 << 20);
}

TEST(ExternalBuilderTest, DoublingModeMatches) {
  GlpOptions glp;
  glp.num_vertices = 200;
  glp.seed = 9;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  BuildOptions build;
  build.mode = BuildMode::kHopDoubling;
  ExpectSameIndex(*ranked, build, 1 << 20);
}

TEST(ExternalBuilderTest, SteppingModeMatches) {
  GlpOptions glp;
  glp.num_vertices = 200;
  glp.seed = 11;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  BuildOptions build;
  build.mode = BuildMode::kHopStepping;
  ExpectSameIndex(*ranked, build, 1 << 20);
}

TEST(ExternalBuilderTest, NoPruneMatches) {
  auto g = CsrGraph::FromEdgeList(PaperExampleGraph());
  ASSERT_TRUE(g.ok());
  BuildOptions build;
  build.prune = false;
  ExpectSameIndex(*g, build, 1 << 20);
}

TEST(ExternalBuilderTest, OldOnlyWitnessAblationMatches) {
  GlpOptions glp;
  glp.num_vertices = 250;
  glp.seed = 13;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  BuildOptions build;
  build.prune_with_candidates = false;
  ExpectSameIndex(*ranked, build, 1 << 20);
}

TEST(ExternalBuilderTest, ExactQueriesAndDiskHandoff) {
  auto dir = TempDir::Create("extb");
  ASSERT_TRUE(dir.ok());
  GlpOptions glp;
  glp.num_vertices = 350;
  glp.seed = 15;
  auto edges = GenerateDirectedGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  ExternalBuildOptions ext;
  ext.scratch_dir = dir->path();
  auto out = BuildHopLabelingExternal(*ranked, ext);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->io.bytes_written, 0u);
  EXPECT_GT(out->total_entries, 0u);
  auto idx = out->ToMemory(*ranked);
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(VerifyExactDistances(
                  *ranked,
                  [&](VertexId s, VertexId t) { return idx->Query(s, t); })
                  .ok());
  // Hand the external result to the disk query engine.
  std::string path = dir->File("final.hdi");
  ASSERT_TRUE(DiskIndex::Write(*idx, path).ok());
  auto disk = DiskIndex::Open(path);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(disk->Query(5, 9), idx->Query(5, 9));
}

TEST(ExternalBuilderTest, RequiresScratchDir) {
  auto g = CsrGraph::FromEdgeList(PathGraph(4));
  ASSERT_TRUE(g.ok());
  ExternalBuildOptions ext;
  auto out = BuildHopLabelingExternal(*g, ext);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExternalBuilderTest, DeadlineAborts) {
  auto dir = TempDir::Create("extb");
  ASSERT_TRUE(dir.ok());
  GlpOptions glp;
  glp.num_vertices = 20000;
  glp.target_avg_degree = 8;
  glp.seed = 17;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  ExternalBuildOptions ext;
  ext.scratch_dir = dir->path();
  ext.build.time_budget_seconds = 1e-7;
  auto out = BuildHopLabelingExternal(*ranked, ext);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsDeadlineExceeded());
}

}  // namespace
}  // namespace hopdb
