#include "hopdb.h"

#include <gtest/gtest.h>

#include "eval/verify.h"
#include "gen/glp.h"
#include "gen/small_graphs.h"
#include "io/temp_dir.h"
#include "util/serde.h"
#include "search/dijkstra.h"

namespace hopdb {
namespace {

TEST(HopDbApiTest, QuickstartFlow) {
  EdgeList edges(0, /*directed=*/false);
  edges.set_directed(false);
  edges.Add(0, 1);
  edges.Add(1, 2);
  edges.Add(2, 3);
  edges.Add(3, 0);
  auto index = HopDbIndex::Build(edges);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->Query(0, 2), 2u);
  EXPECT_EQ(index->Query(1, 3), 2u);
  EXPECT_EQ(index->Query(0, 0), 0u);
  EXPECT_EQ(index->num_vertices(), 4u);
  EXPECT_FALSE(index->directed());
}

TEST(HopDbApiTest, QueriesUseOriginalIds) {
  // A graph whose highest-degree vertex is NOT id 0, so the rank
  // permutation is non-trivial and id translation is exercised.
  EdgeList edges(6, /*directed=*/false);
  for (VertexId v = 0; v < 5; ++v) edges.Add(5, v);  // hub is vertex 5
  auto index = HopDbIndex::Build(edges);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->ranking().ToInternal(5), 0u);
  auto g = CsrGraph::FromEdgeList(edges);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(VerifyExactDistances(
                  *g,
                  [&](VertexId s, VertexId t) { return index->Query(s, t); })
                  .ok());
}

TEST(HopDbApiTest, DirectedGraph) {
  auto index = HopDbIndex::Build(PaperExampleGraph());
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->directed());
  auto g = CsrGraph::FromEdgeList(PaperExampleGraph());
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(VerifyExactDistances(
                  *g,
                  [&](VertexId s, VertexId t) { return index->Query(s, t); })
                  .ok());
}

TEST(HopDbApiTest, CustomRanking) {
  EdgeList edges = GridGraph(4, 4);
  HopDbOptions opts;
  opts.ranking = HopDbOptions::Ranking::kCustom;
  opts.custom_order.resize(16);
  for (VertexId i = 0; i < 16; ++i) {
    opts.custom_order[i] = 15 - i;  // reverse id order
  }
  auto index = HopDbIndex::Build(edges, opts);
  ASSERT_TRUE(index.ok());
  auto g = CsrGraph::FromEdgeList(edges);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(VerifyExactDistances(
                  *g,
                  [&](VertexId s, VertexId t) { return index->Query(s, t); })
                  .ok());
}

TEST(HopDbApiTest, CustomRankingWrongSizeFails) {
  HopDbOptions opts;
  opts.ranking = HopDbOptions::Ranking::kCustom;
  opts.custom_order = {0, 1};
  auto index = HopDbIndex::Build(GridGraph(3, 3), opts);
  EXPECT_FALSE(index.ok());
}

TEST(HopDbApiTest, CustomRankingNotAPermutationFails) {
  HopDbOptions opts;
  opts.ranking = HopDbOptions::Ranking::kCustom;
  // Right length, but vertex 0 twice and vertex 8 missing.
  opts.custom_order = {0, 1, 2, 3, 4, 5, 6, 7, 0};
  auto duplicate = HopDbIndex::Build(GridGraph(3, 3), opts);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);
  // Right length, but an id past the last vertex.
  opts.custom_order = {0, 1, 2, 3, 4, 5, 6, 7, 9};
  auto out_of_range = HopDbIndex::Build(GridGraph(3, 3), opts);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
}

TEST(HopDbApiTest, SaveLoadRoundTrip) {
  auto dir = TempDir::Create("api");
  ASSERT_TRUE(dir.ok());
  GlpOptions glp;
  glp.num_vertices = 300;
  glp.seed = 5;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto index = HopDbIndex::Build(*edges);
  ASSERT_TRUE(index.ok());
  std::string path = dir->File("g.hopdb");
  ASSERT_TRUE(index->Save(path).ok());
  auto back = HopDbIndex::Load(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_vertices(), index->num_vertices());
  for (VertexId s = 0; s < 300; s += 17) {
    for (VertexId t = 0; t < 300; t += 23) {
      EXPECT_EQ(back->Query(s, t), index->Query(s, t));
    }
  }
}

TEST(HopDbApiTest, LoadRejectsCraftedPermutation) {
  auto dir = TempDir::Create("api_perm");
  ASSERT_TRUE(dir.ok());
  auto index = HopDbIndex::Build(GridGraph(3, 3));
  ASSERT_TRUE(index.ok());
  const std::string path = dir->File("g.hopdb");
  ASSERT_TRUE(index->Save(path).ok());
  auto perm_with = [](uint64_t n, std::vector<uint32_t> ids) {
    std::string perm;
    PutU64(&perm, n);
    for (uint32_t v : ids) PutU32(&perm, v);
    return perm;
  };
  const std::vector<std::string> crafted = {
      perm_with(uint64_t{1} << 40, {}),          // count sizes no allocation
      perm_with(8, {0, 1, 2, 3, 4, 5, 6, 7}),    // wrong vertex count
      perm_with(9, {0, 1, 2}),                   // truncated
      perm_with(9, {0, 1, 2, 3, 4, 5, 6, 7, 9}),  // id out of range
      perm_with(9, {0, 1, 2, 3, 4, 5, 6, 7, 7}),  // duplicate id
      perm_with(9, {0, 1, 2, 3, 4, 5, 6, 7, 8, 0}),  // trailing bytes
  };
  for (const std::string& perm : crafted) {
    ASSERT_TRUE(WriteStringToFile(path + ".perm", perm).ok());
    auto back = HopDbIndex::Load(path);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument)
        << back.status();
  }
}

TEST(HopDbApiTest, BuildStatsExposed) {
  auto index = HopDbIndex::Build(StarGraphGS());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->build_stats().initial_entries, 5u);
  EXPECT_GT(index->AvgLabelSize(), 0.0);
  EXPECT_GT(index->PaperSizeBytes(), 0u);
}

TEST(HopDbApiTest, BuildOptionsPropagate) {
  GlpOptions glp;
  glp.num_vertices = 5000;
  glp.target_avg_degree = 8;
  glp.seed = 7;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  HopDbOptions opts;
  opts.build.time_budget_seconds = 1e-7;
  auto index = HopDbIndex::Build(*edges, opts);
  ASSERT_FALSE(index.ok());
  EXPECT_TRUE(index.status().IsDeadlineExceeded());
}

TEST(HopDbApiTest, ReachabilityMatchesFiniteDistance) {
  // Directed example: reachability is asymmetric.
  auto g = CsrGraph::FromEdgeList(PaperExampleGraph());
  ASSERT_TRUE(g.ok());
  auto index = HopDbIndex::Build(*g);
  ASSERT_TRUE(index.ok());
  for (VertexId s = 0; s < g->num_vertices(); ++s) {
    const std::vector<Distance> truth = ExactDistances(*g, s);
    for (VertexId t = 0; t < g->num_vertices(); ++t) {
      EXPECT_EQ(index->Reachable(s, t), truth[t] != kInfDistance)
          << s << "->" << t;
    }
  }
}

}  // namespace
}  // namespace hopdb
