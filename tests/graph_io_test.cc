#include "graph/graph_io.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "gen/glp.h"
#include "gen/weights.h"
#include "graph/csr_graph.h"
#include "graph/ranking.h"
#include "io/temp_dir.h"
#include "util/serde.h"

namespace hopdb {
namespace {

TEST(TextGraphTest, ParsesBasicEdgeList) {
  std::string text =
      "# comment\n"
      "% konect-style comment\n"
      "0 1\n"
      "1 2\n"
      "\n"
      "2 0\n";
  TextGraphOptions opt;
  opt.directed = true;
  auto edges = ParseTextEdgeList(text, opt);
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges->num_edges(), 3u);
  EXPECT_EQ(edges->num_vertices(), 3u);
  EXPECT_FALSE(edges->weighted());
}

TEST(TextGraphTest, ParsesWeights) {
  TextGraphOptions opt;
  opt.directed = false;
  auto edges = ParseTextEdgeList("0 1 5\n1 2 3\n", opt);
  ASSERT_TRUE(edges.ok());
  EXPECT_TRUE(edges->weighted());
  EXPECT_EQ(edges->edges()[0].weight, 5u);
}

TEST(TextGraphTest, IgnoresWeightsWhenAsked) {
  TextGraphOptions opt;
  opt.read_weights = false;
  auto edges = ParseTextEdgeList("0 1 5\n", opt);
  ASSERT_TRUE(edges.ok());
  EXPECT_FALSE(edges->weighted());
  EXPECT_EQ(edges->edges()[0].weight, 1u);
}

TEST(TextGraphTest, CompactsSparseIds) {
  TextGraphOptions opt;
  auto edges = ParseTextEdgeList("1000000 2000000\n2000000 5\n", opt);
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges->num_vertices(), 3u);
}

// compact_ids numbers each line's source before its destination, so
// ids follow their first appearance in the file on every compiler.
TEST(TextGraphTest, CompactsIdsInFirstAppearanceOrder) {
  TextGraphOptions opt;
  opt.directed = true;
  const std::vector<Edge> path = {Edge(0, 1), Edge(1, 2)};
  auto dense = ParseTextEdgeList("0 1\n1 2\n", opt);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense->edges(), path);
  auto sparse = ParseTextEdgeList("5 3\n3 9\n", opt);  // 5, 3, 9 -> 0, 1, 2
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(sparse->edges(), path);
}

TEST(TextGraphTest, RejectsMalformedLines) {
  TextGraphOptions opt;
  EXPECT_FALSE(ParseTextEdgeList("0\n", opt).ok());
  EXPECT_FALSE(ParseTextEdgeList("a b\n", opt).ok());
  EXPECT_FALSE(ParseTextEdgeList("0 1 2 3\n", opt).ok());
  EXPECT_FALSE(ParseTextEdgeList("0 1 0\n", opt).ok());  // zero weight
}

TEST(TextGraphTest, TabSeparatedAndCrlf) {
  TextGraphOptions opt;
  auto edges = ParseTextEdgeList("0\t1\r\n1\t2\r\n", opt);
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges->num_edges(), 2u);
}

TEST(TextGraphTest, FileRoundTrip) {
  auto dir = TempDir::Create("graph_io");
  ASSERT_TRUE(dir.ok());
  GlpOptions glp;
  glp.num_vertices = 500;
  glp.seed = 3;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  std::string path = dir->File("g.txt");
  ASSERT_TRUE(WriteTextEdgeList(*edges, path).ok());
  TextGraphOptions opt;
  opt.directed = false;
  auto back = ReadTextEdgeList(path, opt);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_edges(), edges->num_edges());
}

TEST(BinaryGraphTest, RoundTripDirectedWeighted) {
  auto dir = TempDir::Create("graph_io");
  ASSERT_TRUE(dir.ok());
  EdgeList edges(5, /*directed=*/true);
  edges.Add(0, 1, 3);
  edges.Add(1, 2, 7);
  edges.Add(4, 0, 2);
  edges.Normalize();
  std::string path = dir->File("g.bin");
  ASSERT_TRUE(WriteBinaryGraph(edges, path).ok());
  auto back = ReadBinaryGraph(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_vertices(), edges.num_vertices());
  EXPECT_TRUE(back->directed());
  EXPECT_TRUE(back->weighted());
  ASSERT_EQ(back->num_edges(), edges.num_edges());
  for (size_t i = 0; i < edges.num_edges(); ++i) {
    EXPECT_EQ(back->edges()[i], edges.edges()[i]);
  }
}

TEST(BinaryGraphTest, RejectsWrongMagic) {
  auto dir = TempDir::Create("graph_io");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->File("bad.bin");
  ASSERT_TRUE(WriteStringToFile(path, "NOTAGRAPH").ok());
  EXPECT_FALSE(ReadBinaryGraph(path).ok());
}

/// An HGR1 file as raw bytes: header, then each record as given.
std::string Hgr1Bytes(uint32_t flags, uint32_t num_vertices,
                      uint64_t num_edges,
                      const std::vector<std::vector<uint32_t>>& records) {
  std::string bytes = "HGR1";
  PutU32(&bytes, flags);
  PutU32(&bytes, num_vertices);
  PutU64(&bytes, num_edges);
  for (const std::vector<uint32_t>& record : records) {
    for (const uint32_t field : record) PutU32(&bytes, field);
  }
  return bytes;
}

// Every crafted file answers a Status from both readers: the edge count
// is bounded by the file's size before it sizes anything, and bytes
// after the last record are refused.
TEST(BinaryGraphTest, CraftedFilesReturnAStatus) {
  auto dir = TempDir::Create("graph_io");
  ASSERT_TRUE(dir.ok());
  const uint32_t kWeighted = 3;  // directed | weighted
  const std::vector<std::pair<const char*, std::string>> cases = {
      {"count past the end of the file",
       Hgr1Bytes(1, 4, uint64_t{1000000000000}, {{0, 1}})},
      {"count one past the records", Hgr1Bytes(1, 4, 2, {{0, 1}})},
      {"trailing bytes", Hgr1Bytes(1, 4, 1, {{0, 1}}) + "xyz"},
      {"a whole extra record", Hgr1Bytes(1, 4, 1, {{0, 1}, {1, 2}})},
      {"endpoint == num_vertices", Hgr1Bytes(1, 4, 2, {{0, 1}, {1, 4}})},
      {"source past num_vertices", Hgr1Bytes(0, 4, 1, {{9, 1}})},
      {"weight 0", Hgr1Bytes(kWeighted, 4, 2, {{0, 1, 3}, {1, 2, 0}})},
      {"weight inf",
       Hgr1Bytes(kWeighted, 4, 1, {{0, 1, kInfDistance}})},
      {"truncated inside a record",
       Hgr1Bytes(kWeighted, 4, 2, {{0, 1, 3}, {1, 2}})},
      {"truncated header", std::string("HGR1\1\0\0\0\4", 9)},
      {"wrong magic", "HGR2" + Hgr1Bytes(1, 4, 0, {}).substr(4)},
  };
  for (const auto& [what, bytes] : cases) {
    const std::string path = dir->File("crafted.hgr");
    ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
    const Result<EdgeList> edges = ReadBinaryGraph(path);
    EXPECT_EQ(edges.status().code(), StatusCode::kInvalidArgument) << what;
    const Result<CsrGraph> csr = LoadCsrGraph(path, true, true);
    EXPECT_EQ(csr.status().code(), StatusCode::kInvalidArgument) << what;
  }
  // The unchanged file loads.
  const std::string path = dir->File("ok.hgr");
  ASSERT_TRUE(
      WriteStringToFile(path, Hgr1Bytes(1, 4, 2, {{0, 1}, {1, 3}})).ok());
  EXPECT_TRUE(ReadBinaryGraph(path).ok());
  EXPECT_TRUE(LoadCsrGraph(path, true, true).ok());
}

/// Arc-for-arc equality of two CSRs, both directions.
void ExpectSameCsr(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.directed(), b.directed());
  EXPECT_EQ(a.weighted(), b.weighted());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    for (const bool in : {false, true}) {
      const auto x = in ? a.InArcs(v) : a.OutArcs(v);
      const auto y = in ? b.InArcs(v) : b.OutArcs(v);
      ASSERT_EQ(x.size(), y.size()) << "v=" << v << " in=" << in;
      for (size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(x[i].to, y[i].to) << "v=" << v << " i=" << i;
        ASSERT_EQ(x[i].weight, y[i].weight) << "v=" << v << " i=" << i;
      }
    }
  }
}

// The windowed two-pass load gives the CSR of the file's normalized
// edges, and with a ranking the same CSR RelabelByRank makes of it, on
// both formats. The graphs hold both orientations and parallel edges.
TEST(LoadCsrGraphTest, MatchesNormalizeFreezeRelabel) {
  auto dir = TempDir::Create("graph_io");
  ASSERT_TRUE(dir.ok());
  for (const bool directed : {false, true}) {
    GlpOptions glp;
    glp.num_vertices = 700;
    glp.seed = 11;
    EdgeList edges = directed ? GenerateDirectedGlp(glp).ValueOrDie()
                              : GenerateGlp(glp).ValueOrDie();
    AssignUniformWeights(&edges, 1, 9, 5);
    const size_t n = edges.num_edges();
    for (size_t i = 0; i < n; i += 7) {
      const Edge e = edges.edges()[i];
      edges.Add(e.dst, e.src, e.weight + 1);
      edges.Add(e.src, e.dst, e.weight + 2);
    }
    const std::string hgr = dir->File("g.hgr");
    const std::string txt = dir->File("g.txt");
    ASSERT_TRUE(WriteBinaryGraph(edges, hgr).ok());
    ASSERT_TRUE(WriteTextEdgeList(edges, txt).ok());
    TextGraphOptions text;
    text.directed = directed;
    for (const std::string& path : {hgr, txt}) {
      SCOPED_TRACE(path + (directed ? " directed" : " undirected"));
      // The reference: each format's edge-list reader (the text one
      // compacts ids), Normalize, FromEdgeList, RelabelByRank.
      EdgeList normalized = path == hgr
                                ? ReadBinaryGraph(path).ValueOrDie()
                                : ReadTextEdgeList(path, text).ValueOrDie();
      normalized.Normalize();
      const CsrGraph reference =
          CsrGraph::FromEdgeList(normalized).ValueOrDie();
      const RankMapping ranking =
          ComputeRanking(reference, directed ? RankingPolicy::kInOutProduct
                                             : RankingPolicy::kDegree);
      const CsrGraph ranked_reference =
          RelabelByRank(reference, ranking).ValueOrDie();

      auto plain = LoadCsrGraph(path, directed, true);
      ASSERT_TRUE(plain.ok()) << plain.status();
      ExpectSameCsr(*plain, reference);
      auto ranked = LoadCsrGraph(path, directed, true, &ranking);
      ASSERT_TRUE(ranked.ok()) << ranked.status();
      ExpectSameCsr(*ranked, ranked_reference);
    }
  }
}

// The arcs decide the layout, not the header: an HGR1 file flagged
// weighted whose weights are all 1 loads with no weight lane and equals
// its unweighted twin arc for arc.
TEST(LoadCsrGraphTest, UnitWeightsFlaggedWeightedLoadWithoutALane) {
  auto dir = TempDir::Create("graph_io");
  ASSERT_TRUE(dir.ok());
  for (const bool directed : {false, true}) {
    SCOPED_TRACE(directed ? "directed" : "undirected");
    GlpOptions glp;
    glp.num_vertices = 300;
    glp.seed = 17;
    const EdgeList edges = directed ? GenerateDirectedGlp(glp).ValueOrDie()
                                    : GenerateGlp(glp).ValueOrDie();
    std::vector<std::vector<uint32_t>> flagged_records, twin_records;
    for (const Edge& e : edges.edges()) {
      flagged_records.push_back({e.src, e.dst, 1});
      twin_records.push_back({e.src, e.dst});
    }
    const uint32_t flags = directed ? 1 : 0;
    const std::string flagged = dir->File("flagged.hgr");
    const std::string twin = dir->File("twin.hgr");
    ASSERT_TRUE(WriteStringToFile(
                    flagged, Hgr1Bytes(flags | 2, edges.num_vertices(),
                                       edges.num_edges(), flagged_records))
                    .ok());
    ASSERT_TRUE(WriteStringToFile(twin, Hgr1Bytes(flags, edges.num_vertices(),
                                                  edges.num_edges(),
                                                  twin_records))
                    .ok());
    auto a = LoadCsrGraph(flagged, directed, true);
    auto b = LoadCsrGraph(twin, directed, true);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_FALSE(a->weighted());
    EXPECT_EQ(a->SizeBytes(), b->SizeBytes());
    ExpectSameCsr(*a, *b);
  }
}

TEST(LoadCsrGraphTest, RefusesAGraphOverAnotherVertexCount) {
  auto dir = TempDir::Create("graph_io");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("g.hgr");
  EdgeList edges(5, /*directed=*/true);
  edges.Add(0, 1);
  edges.Add(1, 4);
  ASSERT_TRUE(WriteBinaryGraph(edges, path).ok());
  const RankMapping four = RankingFromOrder({3, 2, 1, 0});
  const Result<CsrGraph> csr = LoadCsrGraph(path, true, false, &four);
  EXPECT_EQ(csr.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(csr.status().message().find("5 vertices"), std::string::npos)
      << csr.status();
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// Loads `path` with 1 GB of address space left to the process, then
// exits 0 iff the load failed with ResourceExhausted.
[[noreturn]] void LoadWithOneGigabyteLeft(const std::string& path) {
  uint64_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const rlim_t cap =
      pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) + (rlim_t{1} << 30);
  const rlimit limit{cap, cap};
  if (pages == 0 || setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
  const Result<CsrGraph> csr = LoadCsrGraph(path, false, false);
  std::_Exit(csr.status().IsResourceExhausted() ? 0 : 1);
}

TEST(LoadCsrGraphTest, VertexCountBeyondMemoryIsResourceExhausted) {
  // ASan's allocator aborts on a refused allocation and TSan's
  // overcommits, so neither throws the bad_alloc the freeze turns into
  // a Status.
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators do not throw";
  auto dir = TempDir::Create("graph_io");
  ASSERT_TRUE(dir.ok());
  // A 20-byte HGR1 file: 4 294 967 295 vertices and no edges. The
  // freeze's |V|-entry arrays take 32 GB each, so with 1 GB of address
  // space left the load must fail with ResourceExhausted, not abort.
  std::string bytes = "HGR1";
  PutU32(&bytes, 1);  // directed
  PutU32(&bytes, UINT32_MAX);
  PutU64(&bytes, 0);
  ASSERT_EQ(bytes.size(), 20u);
  const std::string path = dir->File("huge.hgr");
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  EXPECT_EXIT(LoadWithOneGigabyteLeft(path), ::testing::ExitedWithCode(0),
              "");
}

}  // namespace
}  // namespace hopdb
