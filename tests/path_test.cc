// PathReconstructor: every reconstructed path must be a real path in the
// graph whose length equals the exact distance, across directed /
// undirected / weighted / disconnected graphs.

#include <gtest/gtest.h>

#include <utility>

#include "gen/erdos_renyi.h"
#include "gen/glp.h"
#include "gen/small_graphs.h"
#include "gen/weights.h"
#include "graph/ranking.h"
#include "hopdb.h"
#include "labeling/builder.h"
#include "query/path.h"
#include "search/dijkstra.h"
#include "util/random.h"

namespace hopdb {
namespace {

struct Fixture {
  CsrGraph graph;  // rank-relabeled
  TwoHopIndex index;
};

Fixture BuildFixture(EdgeList edges) {
  auto base = CsrGraph::FromEdgeList(edges);
  base.status().CheckOK();
  RankMapping mapping = ComputeRanking(
      *base, base->directed() ? RankingPolicy::kInOutProduct
                              : RankingPolicy::kDegree);
  auto ranked = RelabelByRank(*base, mapping);
  ranked.status().CheckOK();
  auto built = BuildHopLabeling(*ranked);
  built.status().CheckOK();
  return Fixture{std::move(*ranked), std::move(built->index)};
}

/// Checks reconstruction for every (s, t) pair of `fix`.
void CheckAllPairs(const Fixture& fix) {
  const CsrGraph& g = fix.graph;
  PathReconstructor recon(g, fix.index);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const std::vector<Distance> truth = ExactDistances(g, s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      auto path = recon.ShortestPath(s, t);
      if (truth[t] == kInfDistance) {
        ASSERT_FALSE(path.ok()) << s << "->" << t;
        ASSERT_TRUE(path.status().IsNotFound());
        ASSERT_EQ(recon.FirstHop(s, t), kInvalidVertex);
        ASSERT_EQ(recon.MeetingPivot(s, t), kInvalidVertex);
        continue;
      }
      ASSERT_TRUE(path.ok()) << s << "->" << t << ": "
                             << path.status().ToString();
      ASSERT_EQ(path->front(), s);
      ASSERT_EQ(path->back(), t);
      ASSERT_EQ(PathLength(g, *path), truth[t]) << s << "->" << t;
      if (s == t) {
        ASSERT_EQ(path->size(), 1u);
        ASSERT_EQ(recon.FirstHop(s, t), kInvalidVertex);
        ASSERT_EQ(recon.MeetingPivot(s, t), s);
      } else {
        ASSERT_EQ(recon.FirstHop(s, t), (*path)[1]);
        // The meeting pivot certifies the distance through itself.
        const VertexId pivot = recon.MeetingPivot(s, t);
        ASSERT_NE(pivot, kInvalidVertex);
        ASSERT_EQ(SaturatingAdd(fix.index.Query(s, pivot),
                                fix.index.Query(pivot, t)),
                  truth[t])
            << s << "->" << t << " pivot " << pivot;
      }
    }
  }
}

TEST(PathReconstructorTest, PaperExampleGraph) {
  CheckAllPairs(BuildFixture(PaperExampleGraph()));
}

TEST(PathReconstructorTest, RoadGraph) {
  CheckAllPairs(BuildFixture(RoadGraphGR()));
}

TEST(PathReconstructorTest, StarGraph) {
  CheckAllPairs(BuildFixture(StarGraphGS()));
}

TEST(PathReconstructorTest, GridGraph) {
  CheckAllPairs(BuildFixture(GridGraph(5, 6)));
}

TEST(PathReconstructorTest, DisconnectedPairsAreNotFound) {
  Fixture fix = BuildFixture(TwoTriangles());
  CheckAllPairs(fix);
}

TEST(PathReconstructorTest, OutOfRangeVertexIsInvalidArgument) {
  Fixture fix = BuildFixture(PathGraph(4));
  PathReconstructor recon(fix.graph, fix.index);
  auto r = recon.ShortestPath(0, 99);
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  ASSERT_EQ(recon.FirstHop(99, 0), kInvalidVertex);
  ASSERT_EQ(recon.MeetingPivot(0, 99), kInvalidVertex);
}

struct PathCase {
  std::string name;
  bool directed;
  bool weighted;
  uint64_t seed;
};

std::string PathCaseName(const ::testing::TestParamInfo<PathCase>& info) {
  return info.param.name + (info.param.directed ? "_dir" : "_und") +
         (info.param.weighted ? "_wgt" : "_unw") + "_s" +
         std::to_string(info.param.seed);
}

class PathSweepTest : public ::testing::TestWithParam<PathCase> {};

TEST_P(PathSweepTest, ReconstructionMatchesGroundTruth) {
  const PathCase& c = GetParam();
  EdgeList edges;
  if (c.name == "glp") {
    GlpOptions glp;
    glp.num_vertices = 120;
    glp.seed = c.seed;
    edges = c.directed ? GenerateDirectedGlp(glp).ValueOrDie()
                       : GenerateGlp(glp).ValueOrDie();
  } else {
    ErOptions er;
    er.num_vertices = 90;
    er.num_edges = 150;  // sparse: disconnected pieces exercise NotFound
    er.directed = c.directed;
    er.seed = c.seed;
    edges = GenerateErdosRenyi(er).ValueOrDie();
  }
  if (c.weighted) {
    AssignUniformWeights(&edges, 1, 9, DeriveSeed(c.seed, 5));
  }
  CheckAllPairs(BuildFixture(std::move(edges)));
}

INSTANTIATE_TEST_SUITE_P(
    PathSweep, PathSweepTest,
    ::testing::Values(PathCase{"glp", false, false, 1},
                      PathCase{"glp", true, false, 2},
                      PathCase{"glp", false, true, 3},
                      PathCase{"glp", true, true, 4},
                      PathCase{"er", false, false, 5},
                      PathCase{"er", true, false, 6},
                      PathCase{"er", true, true, 7}),
    PathCaseName);

// --- facade-level querier (original vertex ids) ---

TEST(HopDbPathQuerierTest, SpeaksOriginalIds) {
  GlpOptions glp;
  glp.num_vertices = 100;
  glp.seed = 71;
  EdgeList edges = GenerateDirectedGlp(glp).ValueOrDie();
  auto graph = CsrGraph::FromEdgeList(edges);
  graph.status().CheckOK();
  auto index = HopDbIndex::Build(*graph);
  index.status().CheckOK();
  auto querier = HopDbPathQuerier::Create(*index, *graph);
  ASSERT_TRUE(querier.ok());

  for (VertexId s = 0; s < graph->num_vertices(); s += 7) {
    const std::vector<Distance> truth = ExactDistances(*graph, s);
    for (VertexId t = 0; t < graph->num_vertices(); t += 5) {
      auto path = querier->ShortestPath(s, t);
      if (truth[t] == kInfDistance) {
        ASSERT_FALSE(path.ok());
        ASSERT_EQ(querier->FirstHop(s, t), kInvalidVertex);
        continue;
      }
      ASSERT_TRUE(path.ok());
      ASSERT_EQ(path->front(), s);
      ASSERT_EQ(path->back(), t);
      // The path is a real path in the ORIGINAL graph with exact length.
      ASSERT_EQ(PathLength(*graph, *path), truth[t]) << s << "->" << t;
      if (s != t) {
        ASSERT_EQ(querier->FirstHop(s, t), (*path)[1]);
      }
    }
  }
}

TEST(HopDbPathQuerierTest, RejectsMismatchedGraph) {
  auto small = CsrGraph::FromEdgeList(PathGraph(4));
  small.status().CheckOK();
  auto big = CsrGraph::FromEdgeList(PathGraph(9));
  big.status().CheckOK();
  auto index = HopDbIndex::Build(std::move(*small));
  index.status().CheckOK();
  auto querier = HopDbPathQuerier::Create(*index, *big);
  ASSERT_FALSE(querier.ok());
  EXPECT_EQ(querier.status().code(), StatusCode::kInvalidArgument);
}

TEST(PathLengthTest, RejectsNonPaths) {
  auto g = CsrGraph::FromEdgeList(PathGraph(4));
  g.status().CheckOK();
  ASSERT_EQ(PathLength(*g, std::vector<VertexId>{}), kInfDistance);
  ASSERT_EQ(PathLength(*g, std::vector<VertexId>{0}), 0u);
  ASSERT_EQ(PathLength(*g, std::vector<VertexId>{0, 1, 2}), 2u);
  // 0-2 is not an arc of the path graph.
  ASSERT_EQ(PathLength(*g, std::vector<VertexId>{0, 2}), kInfDistance);
}

}  // namespace
}  // namespace hopdb
