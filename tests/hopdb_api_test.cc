#include "hopdb.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "eval/verify.h"
#include "gen/glp.h"
#include "gen/small_graphs.h"
#include "hli1_files.h"
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

/// A 3x3 grid's index saved to `path`, split into its label body (the
/// file before the rank section) and its rank section.
void SaveGrid(const std::string& path, std::string* labels,
              std::string* ranks) {
  auto index = HopDbIndex::Build(GridGraph(3, 3));
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Save(path).ok());
  std::string file;
  ASSERT_TRUE(ReadFileToString(path, &file).ok());
  ASSERT_GT(file.size(), 8u + 4 * 9);
  const size_t rank_start = file.size() - 8 - 4 * 9;
  *labels = file.substr(0, rank_start);
  *ranks = file.substr(rank_start, 4 * 9);
}

// HLI1 files whose checksum holds but whose rank section is not 9 ids
// or not a permutation of the 9 vertices: each must fail with
// InvalidArgument rather than reach RankingFromOrder, which CHECK-fails
// on it. The rank section is the body's last 4|V| bytes, so one that is
// short or long moves where the entry section must end, and the lengths
// or the entries are refused before the ranks are read.
TEST(HopDbApiTest, LoadRejectsCraftedRankSection) {
  auto dir = TempDir::Create("api_ranks");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("g.hopdb");
  std::string labels, ranks;
  ASSERT_NO_FATAL_FAILURE(SaveGrid(path, &labels, &ranks));
  ASSERT_TRUE(HopDbIndex::Load(path).ok());
  const auto ids = [](std::vector<uint32_t> list) {
    std::string section;
    for (const uint32_t v : list) PutU32(&section, v);
    return section;
  };
  const struct {
    std::string section;
    const char* what;
    const char* refusal;
  } crafted[] = {
      {ids({0, 1, 2, 3, 4, 5, 6, 7}), "short",
       "label lengths exceed the entry section"},
      {ranks + ids({0}), "long", "ends before the rank section"},
      {ids({0, 1, 2, 3, 4, 5, 6, 7, 9}), "id out of range",
       "not a permutation"},
      {ids({0, 1, 2, 3, 4, 5, 6, 7, 7}), "repeated id", "not a permutation"},
  };
  for (const auto& c : crafted) {
    ASSERT_TRUE(WriteStringToFile(path, Sealed(labels + c.section)).ok());
    auto back = HopDbIndex::Load(path);
    ASSERT_FALSE(back.ok()) << c.what;
    EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument)
        << c.what << ": " << back.status();
    EXPECT_NE(back.status().message().find(c.refusal), std::string::npos)
        << c.what << ": " << back.status();
  }
}

// An index saved before HLI1 carried its ranks: the fixed-width label
// body sealed by its own checksum, the ranks in a .perm sidecar. It is
// refused with a message that says to rebuild it, sidecar or not, and
// so is the fixed-width file with its rank section that the build
// before the compact layout wrote.
TEST(HopDbApiTest, LoadRefusesIndexWithPermSidecar) {
  auto dir = TempDir::Create("api_old");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("g.hopdb");
  std::string labels, ranks;
  ASSERT_NO_FATAL_FAILURE(SaveGrid(path, &labels, &ranks));
  auto index = HopDbIndex::Load(path);
  ASSERT_TRUE(index.ok()) << index.status();
  const std::vector<VertexId>& order = index->ranking().rank_to_orig;
  ASSERT_TRUE(
      WriteStringToFile(path, FixedWidthHli1(index->label_index(), &order))
          .ok());
  auto parent_layout = HopDbIndex::Load(path);
  EXPECT_EQ(parent_layout.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parent_layout.status().message().find("rebuild"),
            std::string::npos)
      << parent_layout.status();
  ASSERT_TRUE(
      WriteStringToFile(path, FixedWidthHli1(index->label_index(), nullptr))
          .ok());
  for (const bool sidecar : {false, true}) {
    if (sidecar) {
      std::string perm;
      PutU64(&perm, 9);
      perm += ranks;
      ASSERT_TRUE(WriteStringToFile(path + ".perm", perm).ok());
    }
    auto back = HopDbIndex::Load(path);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(back.status().message().find("rebuild"), std::string::npos)
        << back.status();
  }
}

// Save writes one file and removes the sidecar an earlier build left
// beside the index it replaces.
TEST(HopDbApiTest, SaveRemovesLeftoverPermSidecar) {
  auto dir = TempDir::Create("api_sidecar");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("g.hopdb");
  ASSERT_TRUE(WriteStringToFile(path + ".perm", "stale").ok());
  auto index = HopDbIndex::Build(GridGraph(3, 3));
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Save(path).ok());
  EXPECT_FALSE(FileSizeBytes(path + ".perm").ok());
  auto back = HopDbIndex::Load(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->ranking().rank_to_orig, index->ranking().rank_to_orig);
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
