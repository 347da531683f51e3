// CompressedIndex: exact round trips, query equivalence with the plain
// index, honest size accounting, and clean failures on corrupt files.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "gen/erdos_renyi.h"
#include "gen/glp.h"
#include "gen/small_graphs.h"
#include "gen/weights.h"
#include "graph/ranking.h"
#include "io/temp_dir.h"
#include "labeling/builder.h"
#include "labeling/compressed_index.h"
#include "util/random.h"
#include "util/serde.h"

namespace hopdb {
namespace {

struct Fixture {
  CsrGraph graph;
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

void ExpectSameLabels(const TwoHopIndex& a, const TwoHopIndex& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.directed(), b.directed());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto ao = a.OutLabel(v);
    const auto bo = b.OutLabel(v);
    ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()))
        << "out label of " << v;
    const auto ai = a.InLabel(v);
    const auto bi = b.InLabel(v);
    ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()))
        << "in label of " << v;
  }
}

struct CompCase {
  std::string name;
  bool directed;
  bool weighted;
  uint64_t seed;
};

std::string CompCaseName(const ::testing::TestParamInfo<CompCase>& info) {
  return info.param.name + (info.param.directed ? "_dir" : "_und") +
         (info.param.weighted ? "_wgt" : "_unw") + "_s" +
         std::to_string(info.param.seed);
}

class CompressedSweepTest : public ::testing::TestWithParam<CompCase> {};

EdgeList MakeGraph(const CompCase& c) {
  EdgeList edges;
  if (c.name == "glp") {
    GlpOptions glp;
    glp.num_vertices = 150;
    glp.seed = c.seed;
    edges = c.directed ? GenerateDirectedGlp(glp).ValueOrDie()
                       : GenerateGlp(glp).ValueOrDie();
  } else {
    ErOptions er;
    er.num_vertices = 110;
    er.num_edges = 190;
    er.directed = c.directed;
    er.seed = c.seed;
    edges = GenerateErdosRenyi(er).ValueOrDie();
  }
  if (c.weighted) {
    AssignUniformWeights(&edges, 1, 200, DeriveSeed(c.seed, 13));
  }
  return edges;
}

TEST_P(CompressedSweepTest, RoundTripAndQueryEquivalence) {
  Fixture fix = BuildFixture(MakeGraph(GetParam()));
  auto compressed = CompressedIndex::FromIndex(fix.index);
  ASSERT_TRUE(compressed.ok());
  ASSERT_EQ(compressed->num_vertices(), fix.index.num_vertices());
  ASSERT_EQ(compressed->directed(), fix.index.directed());

  // Exact decompression round trip.
  auto restored = compressed->Decompress();
  ASSERT_TRUE(restored.ok());
  ExpectSameLabels(fix.index, *restored);

  // Every pair answers identically to the plain index.
  const VertexId n = fix.index.num_vertices();
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_EQ(compressed->Query(s, t), fix.index.Query(s, t))
          << s << "->" << t;
    }
  }
}

TEST_P(CompressedSweepTest, SaveLoadPreservesEverything) {
  Fixture fix = BuildFixture(MakeGraph(GetParam()));
  auto compressed = CompressedIndex::FromIndex(fix.index);
  ASSERT_TRUE(compressed.ok());

  TempDir dir = TempDir::Create("hlc_test").ValueOrDie();
  const std::string path = dir.File("index.hlc");
  ASSERT_TRUE(compressed->Save(path).ok());

  auto loaded = CompressedIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto restored = loaded->Decompress();
  ASSERT_TRUE(restored.ok());
  ExpectSameLabels(fix.index, *restored);
}

INSTANTIATE_TEST_SUITE_P(
    CompressedSweep, CompressedSweepTest,
    ::testing::Values(CompCase{"glp", false, false, 31},
                      CompCase{"glp", true, false, 32},
                      CompCase{"glp", true, true, 33},
                      CompCase{"er", false, false, 34},
                      CompCase{"er", true, true, 35}),
    CompCaseName);

// The compressed-stream merge walks the delta-varint payloads directly
// and must answer exactly as decompress-then-query does.
TEST(CompressedIndexTest, StreamQueryMatchesDecompressThenQuery) {
  GlpOptions glp;
  glp.num_vertices = 220;
  glp.seed = 91;
  Fixture fix = BuildFixture(GenerateDirectedGlp(glp).ValueOrDie());
  auto compressed = CompressedIndex::FromIndex(fix.index);
  ASSERT_TRUE(compressed.ok());
  auto restored = compressed->Decompress();
  ASSERT_TRUE(restored.ok());

  const VertexId n = fix.index.num_vertices();
  Rng rng(DeriveSeed(91, 7));
  for (int i = 0; i < 4000; ++i) {
    const VertexId s = rng.Below(n);
    const VertexId t = rng.Below(n);
    ASSERT_EQ(compressed->Query(s, t), restored->Query(s, t)) << s << "->" << t;
  }
  // Degenerate endpoints: s == t and out-of-range ids.
  EXPECT_EQ(compressed->Query(3, 3), 0u);
  EXPECT_EQ(compressed->Query(n, 0), kInfDistance);
  EXPECT_EQ(compressed->Query(0, n + 5), kInfDistance);
}

TEST(CompressedIndexTest, CompressesBelowPaperAccountingOnUnweighted) {
  GlpOptions glp;
  glp.num_vertices = 600;
  glp.seed = 41;
  Fixture fix = BuildFixture(GenerateGlp(glp).ValueOrDie());
  auto compressed = CompressedIndex::FromIndex(fix.index);
  ASSERT_TRUE(compressed.ok());
  // Delta-varint beats both the in-memory form (8 B/entry) and the
  // paper's disk accounting (5 B/entry + offsets) on scale-free labels.
  EXPECT_LT(compressed->SizeBytes(), fix.index.SizeBytes());
  EXPECT_LT(compressed->SizeBytes(), fix.index.PaperSizeBytes());
}

TEST(CompressedIndexTest, EmptyIndexIsRejected) {
  TwoHopIndex empty;
  auto r = CompressedIndex::FromIndex(empty);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompressedIndexTest, LoadRejectsMissingFile) {
  auto r = CompressedIndex::Load("/nonexistent/path/index.hlc");
  ASSERT_FALSE(r.ok());
}

class CompressedCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir::Create("hlc_corrupt").ValueOrDie();
    Fixture fix = BuildFixture(PaperExampleGraph());
    auto compressed = CompressedIndex::FromIndex(fix.index);
    ASSERT_TRUE(compressed.ok());
    path_ = dir_.File("index.hlc");
    ASSERT_TRUE(compressed->Save(path_).ok());
    ASSERT_TRUE(ReadFileToString(path_, &blob_).ok());
  }

  TempDir dir_;
  std::string path_;
  std::string blob_;
};

TEST_F(CompressedCorruptionTest, FlippedByteFailsChecksum) {
  // Flip one byte in the middle; the checksum must catch it.
  std::string corrupt = blob_;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x40);
  const std::string p = dir_.File("corrupt.hlc");
  ASSERT_TRUE(WriteStringToFile(p, corrupt).ok());
  auto r = CompressedIndex::Load(p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
}

TEST_F(CompressedCorruptionTest, TruncationFailsCleanly) {
  for (const size_t keep : {size_t{0}, size_t{8}, blob_.size() / 2,
                            blob_.size() - 1}) {
    const std::string p = dir_.File("trunc.hlc");
    ASSERT_TRUE(WriteStringToFile(p, blob_.substr(0, keep)).ok());
    auto r = CompressedIndex::Load(p);
    ASSERT_FALSE(r.ok()) << "kept " << keep << " bytes";
  }
}

TEST_F(CompressedCorruptionTest, BadMagicIsRejected) {
  std::string corrupt = blob_;
  corrupt[0] = 'X';
  // Re-stamp the checksum so only the magic check can fail.
  const uint64_t sum = Fnv1a64(corrupt.data(), corrupt.size() - 8);
  corrupt.resize(corrupt.size() - 8);
  PutU64(&corrupt, sum);
  const std::string p = dir_.File("magic.hlc");
  ASSERT_TRUE(WriteStringToFile(p, corrupt).ok());
  auto r = CompressedIndex::Load(p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
}

/// One label's HLC1 payload as the encoder writes it (pivot gaps from
/// -1, then the distance), whatever the entries hold: a repeated pivot
/// encodes a zero gap.
std::string EncodedLabel(std::vector<std::pair<uint32_t, uint32_t>> entries) {
  std::string payload;
  uint64_t prev = 0;
  for (const auto& [pivot, dist] : entries) {
    const uint64_t key = uint64_t{pivot} + 1;
    PutVarint64(&payload, key - prev);
    PutVarint64(&payload, dist);
    prev = key;
  }
  return payload;
}

/// An undirected HLC1 file with one vertex per label payload, sealed
/// with a valid checksum.
std::string SealedHlc1(const std::vector<std::string>& labels) {
  std::string file;
  PutU32(&file, 0x31434c48);  // "HLC1"
  PutU8(&file, 0);            // undirected
  PutU32(&file, static_cast<uint32_t>(labels.size()));
  uint32_t offset = 0;
  PutU32(&file, offset);
  for (const std::string& label : labels) {
    offset += static_cast<uint32_t>(label.size());
    PutU32(&file, offset);
  }
  for (const std::string& label : labels) file += label;
  PutU64(&file, Fnv1a64(file.data(), file.size()));
  return file;
}

// Sealed files whose offsets are sound but one label breaks an entry
// check. Without the label checks they loaded, and the zero-distance
// one answered 0 between two distinct vertices.
TEST(CompressedIndexTest, CraftedLabelsFailLoad) {
  auto dir = TempDir::Create("hlc_crafted");
  ASSERT_TRUE(dir.ok()) << dir.status();
  const std::string path = dir->File("crafted.hlc");

  ASSERT_TRUE(
      WriteStringToFile(path, SealedHlc1({"", EncodedLabel({{0, 3}})})).ok());
  auto sound = CompressedIndex::Load(path);
  ASSERT_TRUE(sound.ok()) << sound.status();
  EXPECT_EQ(sound->Query(1, 0), 3u);

  for (const auto& [labels, what] :
       {std::pair{std::vector<std::string>{"", EncodedLabel({{5, 1}})},
                  "pivot out of range"},
        std::pair{std::vector<std::string>{"", EncodedLabel({{0, 0}})},
                  "zero distance"},
        std::pair{std::vector<std::string>{"", EncodedLabel({{1, 1}})},
                  "self entry"},
        std::pair{std::vector<std::string>{"", "",
                                           EncodedLabel({{0, 1}, {0, 2}})},
                  "repeated pivot"},
        std::pair{std::vector<std::string>{"", std::string("\x01")},
                  "entry cut short"},
        std::pair{std::vector<std::string>{"", std::string("\x01\x81")},
                  "varint past the end offset"}}) {
    ASSERT_TRUE(WriteStringToFile(path, SealedHlc1(labels)).ok());
    auto loaded = CompressedIndex::Load(path);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << what << ": " << loaded.status();
  }
}

// --- varint / checksum primitives (serde additions) ---

TEST(VarintTest, RoundTripsBoundaryValues) {
  for (const uint64_t v : std::vector<uint64_t>{
           0, 1, 127, 128, 129, 16383, 16384, (uint64_t{1} << 32) - 1,
           uint64_t{1} << 32, UINT64_MAX}) {
    std::string buf;
    PutVarint64(&buf, v);
    size_t pos = 0;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(reinterpret_cast<const uint8_t*>(buf.data()),
                            buf.size(), &pos, &decoded));
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, EncodingLengthMatchesMagnitude) {
  std::string one, two, ten;
  PutVarint64(&one, 127);
  PutVarint64(&two, 128);
  PutVarint64(&ten, UINT64_MAX);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(two.size(), 2u);
  EXPECT_EQ(ten.size(), 10u);
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 1u << 20);
  for (size_t keep = 0; keep + 1 < buf.size(); ++keep) {
    size_t pos = 0;
    uint64_t v;
    EXPECT_FALSE(GetVarint64(reinterpret_cast<const uint8_t*>(buf.data()),
                             keep, &pos, &v));
  }
}

TEST(VarintTest, RandomRoundTripStream) {
  Rng rng(77);
  std::vector<uint64_t> values;
  std::string buf;
  for (int i = 0; i < 2000; ++i) {
    // Skew small: label deltas and distances are mostly tiny.
    const uint64_t v = rng.Next64() >> (rng.Below(64));
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  size_t pos = 0;
  for (const uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(GetVarint64(reinterpret_cast<const uint8_t*>(buf.data()),
                            buf.size(), &pos, &v));
    ASSERT_EQ(v, expected);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(Fnv1aTest, KnownVectorsAndSensitivity) {
  // FNV-1a 64 reference values.
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(Fnv1a64("abc", 3), Fnv1a64("abd", 3));
  EXPECT_NE(Fnv1a64("abc", 3), Fnv1a64("abc", 2));
}

}  // namespace
}  // namespace hopdb
