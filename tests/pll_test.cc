#include "baselines/pll.h"

#include <gtest/gtest.h>

#include "eval/verify.h"
#include "gen/erdos_renyi.h"
#include "gen/glp.h"
#include "gen/small_graphs.h"
#include "gen/weights.h"
#include "graph/ranking.h"
#include "labeling/builder.h"

namespace hopdb {
namespace {

Result<CsrGraph> RankedGraph(const EdgeList& edges) {
  HOPDB_ASSIGN_OR_RETURN(CsrGraph g, CsrGraph::FromEdgeList(edges));
  RankMapping m = ComputeRanking(
      g, g.directed() ? RankingPolicy::kInOutProduct : RankingPolicy::kDegree);
  return RelabelByRank(g, m);
}

TEST(PllTest, StarGraphCanonical) {
  auto ranked = RankedGraph(StarGraphGS());
  ASSERT_TRUE(ranked.ok());
  auto out = BuildPll(*ranked);
  ASSERT_TRUE(out.ok());
  // One entry per leaf: the Table 4 cover.
  EXPECT_EQ(out->index.TotalEntries(), 5u);
  EXPECT_TRUE(out->index.Validate(/*ranked=*/true).ok());
}

TEST(PllTest, ExactOnDirectedExample) {
  auto g = CsrGraph::FromEdgeList(PaperExampleGraph());
  ASSERT_TRUE(g.ok());
  auto out = BuildPll(*g);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(VerifyExactDistances(
                  *g,
                  [&](VertexId s, VertexId t) {
                    return out->index.Query(s, t);
                  })
                  .ok());
  EXPECT_EQ(out->searches, 16u);  // two per vertex, directed
}

TEST(PllTest, ExactOnWeightedGrid) {
  EdgeList e = GridGraph(6, 6);
  AssignUniformWeights(&e, 1, 9, 13);
  auto ranked = RankedGraph(e);
  ASSERT_TRUE(ranked.ok());
  auto out = BuildPll(*ranked);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(VerifyExactDistances(
                  *ranked,
                  [&](VertexId s, VertexId t) {
                    return out->index.Query(s, t);
                  })
                  .ok());
}

TEST(PllTest, ExactOnDisconnected) {
  auto ranked = RankedGraph(TwoTriangles());
  ASSERT_TRUE(ranked.ok());
  auto out = BuildPll(*ranked);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->index.Query(0, 5), kInfDistance);
}

TEST(PllTest, DeadlineAborts) {
  GlpOptions glp;
  glp.num_vertices = 20000;
  glp.target_avg_degree = 8;
  glp.seed = 3;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  PllOptions opts;
  opts.time_budget_seconds = 1e-7;
  auto out = BuildPll(*ranked, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsDeadlineExceeded());
}

// PLL and HopDb both build the canonical labeling for the same vertex
// order on unweighted graphs, so their indexes must coincide exactly —
// the strongest possible cross-validation of the iterative rules against
// the pruned-BFS construction.
class PllEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PllEquivalenceTest, MatchesHopDbLabelForLabel) {
  GlpOptions glp;
  glp.num_vertices = 700;
  glp.seed = GetParam();
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());

  auto pll = BuildPll(*ranked);
  ASSERT_TRUE(pll.ok());
  auto hop = BuildHopLabeling(*ranked, BuildOptions{});
  ASSERT_TRUE(hop.ok());

  ASSERT_EQ(pll->index.TotalEntries(), hop->index.TotalEntries());
  for (VertexId v = 0; v < ranked->num_vertices(); ++v) {
    auto a = pll->index.OutLabel(v);
    auto b = hop->index.OutLabel(v);
    ASSERT_EQ(a.size(), b.size()) << "label of " << v;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].pivot, b[i].pivot) << "label of " << v;
      EXPECT_EQ(a[i].dist, b[i].dist) << "label of " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PllEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(PllTest, DirectedEquivalenceWithHopDb) {
  ErOptions er;
  er.num_vertices = 300;
  er.num_edges = 1200;
  er.directed = true;
  er.seed = 17;
  auto edges = GenerateErdosRenyi(er);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  auto pll = BuildPll(*ranked);
  ASSERT_TRUE(pll.ok());
  auto hop = BuildHopLabeling(*ranked, BuildOptions{});
  ASSERT_TRUE(hop.ok());
  EXPECT_EQ(pll->index.TotalEntries(), hop->index.TotalEntries());
  for (VertexId v = 0; v < ranked->num_vertices(); ++v) {
    auto check = [&](const LabelView& a, const LabelView& b) {
      ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pivot, b[i].pivot);
        EXPECT_EQ(a[i].dist, b[i].dist);
      }
    };
    check(pll->index.OutLabel(v), hop->index.OutLabel(v));
    check(pll->index.InLabel(v), hop->index.InLabel(v));
  }
}

}  // namespace
}  // namespace hopdb
