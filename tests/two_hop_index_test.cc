#include "labeling/two_hop_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "gen/glp.h"
#include "gen/weights.h"
#include "graph/ranking.h"
#include "hopdb.h"
#include "io/temp_dir.h"
#include "labeling/label_entry.h"
#include "util/serde.h"

namespace hopdb {
namespace {

TEST(LabelEntryTest, LookupPivot) {
  LabelVector l = {{1, 5}, {4, 2}, {9, 7}};
  EXPECT_EQ(LookupPivot(l, 1), 5u);
  EXPECT_EQ(LookupPivot(l, 4), 2u);
  EXPECT_EQ(LookupPivot(l, 9), 7u);
  EXPECT_EQ(LookupPivot(l, 0), kInfDistance);
  EXPECT_EQ(LookupPivot(l, 5), kInfDistance);
  EXPECT_EQ(LookupPivot(l, 100), kInfDistance);
  EXPECT_EQ(LookupPivot({}, 3), kInfDistance);
}

TEST(LabelEntryTest, UpperBoundPivot) {
  LabelVector l = {{1, 5}, {4, 2}, {9, 7}};
  EXPECT_EQ(UpperBoundPivot(l, 0), 0u);
  EXPECT_EQ(UpperBoundPivot(l, 1), 1u);
  EXPECT_EQ(UpperBoundPivot(l, 4), 2u);
  EXPECT_EQ(UpperBoundPivot(l, 10), 3u);
}

TEST(LabelEntryTest, IntersectLabels) {
  LabelVector a = {{1, 5}, {4, 2}, {9, 7}};
  LabelVector b = {{2, 1}, {4, 3}, {9, 1}};
  EXPECT_EQ(IntersectLabels(a, b), 5u);  // min(2+3, 7+1)
  LabelVector c = {{3, 1}};
  EXPECT_EQ(IntersectLabels(a, c), kInfDistance);
  EXPECT_EQ(IntersectLabels({}, b), kInfDistance);
}

TEST(LabelEntryTest, IntersectSaturates) {
  LabelVector a = {{1, kInfDistance - 1}};
  LabelVector b = {{1, kInfDistance - 1}};
  EXPECT_EQ(IntersectLabels(a, b), kInfDistance);
}

// Small hand-built undirected index over a path 2 - 1 - 0 (ranked ids):
// L(1) = {(0, 1)}, L(2) = {(0, 2), (1, 1)}.
TwoHopIndex PathIndex() {
  std::vector<LabelVector> out(3);
  out[1] = {{0, 1}};
  out[2] = {{0, 2}, {1, 1}};
  return TwoHopIndex(std::move(out), {}, /*directed=*/false);
}

/// The identity ranking over n vertices, for indexes built in rank ids
/// with no original ids of their own.
RankMapping Identity(VertexId n) {
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  return RankingFromOrder(std::move(order));
}

/// `body` followed by the identity rank section over n vertices.
std::string WithRanks(std::string body, VertexId n) {
  for (VertexId v = 0; v < n; ++v) PutU32(&body, v);
  return body;
}

TEST(TwoHopIndexTest, UndirectedQueries) {
  TwoHopIndex idx = PathIndex();
  EXPECT_EQ(idx.Query(0, 0), 0u);
  EXPECT_EQ(idx.Query(1, 0), 1u);  // trivial pivot 0 side
  EXPECT_EQ(idx.Query(0, 1), 1u);
  EXPECT_EQ(idx.Query(1, 2), 1u);
  EXPECT_EQ(idx.Query(2, 1), 1u);
  EXPECT_EQ(idx.Query(0, 2), 2u);
}

TEST(TwoHopIndexTest, DirectedQueries) {
  // Directed path 1 -> 0 -> 2: Lout(1) = {(0,1)}, Lin(2) = {(0,1)}.
  std::vector<LabelVector> out(3), in(3);
  out[1] = {{0, 1}};
  in[2] = {{0, 1}};
  TwoHopIndex idx(std::move(out), std::move(in), /*directed=*/true);
  EXPECT_EQ(idx.Query(1, 2), 2u);
  EXPECT_EQ(idx.Query(2, 1), kInfDistance);
  EXPECT_EQ(idx.Query(1, 0), 1u);
  EXPECT_EQ(idx.Query(0, 2), 1u);
  EXPECT_EQ(idx.Query(2, 0), kInfDistance);
}

TEST(TwoHopIndexTest, Stats) {
  TwoHopIndex idx = PathIndex();
  EXPECT_EQ(idx.TotalEntries(), 3u);
  EXPECT_DOUBLE_EQ(idx.AvgLabelSize(), 1.0);
  EXPECT_EQ(idx.PaperSizeBytes(), 3u * 5u + 3u * 8u);
  auto per_pivot = idx.EntriesPerPivot();
  EXPECT_EQ(per_pivot[0], 2u);
  EXPECT_EQ(per_pivot[1], 1u);
  EXPECT_EQ(per_pivot[2], 0u);
}

TEST(TwoHopIndexTest, ValidateAcceptsGoodIndex) {
  TwoHopIndex idx = PathIndex();
  EXPECT_TRUE(idx.Validate(/*ranked=*/true).ok());
}

TEST(TwoHopIndexTest, ValidateRejectsUnsorted) {
  std::vector<LabelVector> out(3);
  out[2] = {{1, 1}, {0, 2}};  // out of order
  TwoHopIndex idx(std::move(out), {}, false);
  EXPECT_FALSE(idx.Validate(true).ok());
}

TEST(TwoHopIndexTest, ValidateRejectsTrivialEntry) {
  std::vector<LabelVector> out(2);
  out[1] = {{1, 0}};
  TwoHopIndex idx(std::move(out), {}, false);
  EXPECT_FALSE(idx.Validate(true).ok());
}

TEST(TwoHopIndexTest, ValidateRejectsLowRankPivot) {
  std::vector<LabelVector> out(3);
  out[1] = {{2, 1}};  // pivot ranked below owner
  TwoHopIndex idx(std::move(out), {}, false);
  EXPECT_FALSE(idx.Validate(/*ranked=*/true).ok());
  EXPECT_TRUE(idx.Validate(/*ranked=*/false).ok());  // fine for IS-Label
}

TEST(TwoHopIndexTest, ValidateRejectsOutOfRangePivot) {
  std::vector<LabelVector> out(2);
  out[1] = {{5, 1}};  // pivot >= |V|
  TwoHopIndex idx(std::move(out), {}, false);
  EXPECT_FALSE(idx.Validate(/*ranked=*/false).ok());
}

TEST(TwoHopIndexTest, SaveLoadRoundTrip) {
  auto dir = TempDir::Create("thi");
  ASSERT_TRUE(dir.ok());
  std::vector<LabelVector> out(3), in(3);
  out[1] = {{0, 1}};
  out[2] = {{0, 2}, {1, 1}};
  in[2] = {{0, 4}};
  TwoHopIndex idx(std::move(out), std::move(in), /*directed=*/true);
  std::string path = dir->File("index.hli");
  EXPECT_EQ(idx.Save(path, Identity(2)).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(idx.Save(path, RankingFromOrder({2, 0, 1})).ok());
  RankMapping ranking;
  auto back = TwoHopIndex::Load(path, &ranking);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(ranking.rank_to_orig, (std::vector<VertexId>{2, 0, 1}));
  EXPECT_TRUE(back->directed());
  EXPECT_EQ(back->num_vertices(), 3u);
  EXPECT_EQ(back->TotalEntries(), 4u);
  for (VertexId s = 0; s < 3; ++s) {
    for (VertexId t = 0; t < 3; ++t) {
      EXPECT_EQ(back->Query(s, t), idx.Query(s, t));
    }
  }
}

TEST(TwoHopIndexTest, LoadRejectsGarbage) {
  auto dir = TempDir::Create("thi");
  ASSERT_TRUE(dir.ok());
  // A well-formed file of the retired compressed format (magic, flags,
  // |V|, label offsets, delta-varint payload, checksum) holding L(1) =
  // {(0, 1)}: no loader reads it any more, so it is refused, not decoded.
  std::string hlc1 = "HLC1";
  PutU8(&hlc1, 0);
  PutU32(&hlc1, 2);
  for (const uint32_t offset : {0, 0, 2}) PutU32(&hlc1, offset);
  PutU8(&hlc1, 1);  // pivot 0, as a gap from -1
  PutU8(&hlc1, 1);  // distance 1
  PutU64(&hlc1, Fnv1a64(hlc1.data(), hlc1.size()));
  const std::string path = dir->File("junk");
  RankMapping ranking;
  for (const std::string& bytes : {std::string("garbage"), hlc1}) {
    ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
    EXPECT_EQ(TwoHopIndex::Load(path, &ranking).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(HopDbIndex::Load(path).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(QueryLabelHalvesTest, TrivialPivots) {
  // Each case is one Lout(s), Lin(t) pair through the span merge.
  const struct {
    LabelVector out_s, in_t;
    VertexId s, t;
    Distance want;
  } cases[] = {
      {{{2, 3}}, {}, 5, 2, 3},                   // t in out_s directly
      {{}, {{5, 4}}, 5, 9, 4},                   // s in in_t directly
      {{}, {}, 3, 3, 0},                         // same vertex
      {{{2, 3}}, {{5, 4}}, 7, 8, kInfDistance},  // nothing in common
      {{{2, 3}, {4, 5}}, {{4, 1}}, 6, 2, 3},     // hit on t beats pivot 4
      {{{1, 4}, {8, 2}}, {{1, 1}}, 6, 8, 2},     // hit on t after in_t ends
      {{{5, 1}}, {{3, 2}, {5, 4}}, 3, 7, 2},     // hit on s beats pivot 5
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::to_string(c.s) + "->" + std::to_string(c.t));
    EXPECT_EQ(QueryLabelHalves(c.out_s, c.in_t, c.s, c.t), c.want);
  }
}

TEST(TwoHopIndexIoTest, TruncatedFilesFailCleanly) {
  std::vector<LabelVector> out(3), in(3);
  out[1] = {{0, 1}};
  in[2] = {{0, 2}, {1, 1}};
  TwoHopIndex index(std::move(out), std::move(in), /*directed=*/true);

  auto dir = TempDir::Create("hli_fail");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("idx.hli");
  ASSERT_TRUE(index.Save(path, Identity(3)).ok());
  std::string blob;
  ASSERT_TRUE(ReadFileToString(path, &blob).ok());

  // Every strict prefix must fail to load, never crash or mis-load.
  const std::string trunc_path = dir->File("trunc.hli");
  RankMapping ranking;
  for (size_t keep = 0; keep < blob.size(); ++keep) {
    ASSERT_TRUE(WriteStringToFile(trunc_path, blob.substr(0, keep)).ok());
    auto loaded = TwoHopIndex::Load(trunc_path, &ranking);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "kept " << keep << ": " << loaded.status();
  }

  // Wrong magic.
  std::string bad = blob;
  bad[0] = 'Z';
  ASSERT_TRUE(WriteStringToFile(trunc_path, bad).ok());
  EXPECT_FALSE(TwoHopIndex::Load(trunc_path, &ranking).ok());
}

// The HLI1 bytes of a 3-vertex directed index, spelled out from the
// docs/FORMATS.md layout: header, out side, in side, rank section, then
// the FNV-1a-64 of everything before it.
TEST(TwoHopIndexIoTest, SaveMatchesDocumentedLayout) {
  std::vector<LabelVector> out(3), in(3);
  out[1] = {{0, 1}};
  out[2] = {{0, 2}, {1, 1}};
  in[2] = {{0, 4}};
  TwoHopIndex index(std::move(out), std::move(in), /*directed=*/true);
  auto dir = TempDir::Create("hli_layout");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("idx.hli");
  ASSERT_TRUE(index.Save(path, RankingFromOrder({1, 2, 0})).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());

  std::string want("HLI1\x01\0\0\0\x03\0\0\0", 12);
  const auto label = [&](std::vector<std::pair<uint32_t, uint32_t>> l) {
    PutU64(&want, l.size());
    for (const auto& [pivot, dist] : l) {
      PutU32(&want, pivot);
      PutU32(&want, dist);
    }
  };
  PutU64(&want, 3);  // out side
  label({});
  label({{0, 1}});
  label({{0, 2}, {1, 1}});
  PutU64(&want, 3);  // in side
  label({});
  label({});
  label({{0, 4}});
  for (const uint32_t id : {1, 2, 0}) PutU32(&want, id);  // rank section
  PutU64(&want, Fnv1a64(want.data(), want.size()));
  ASSERT_EQ(want.size(), 128u);
  EXPECT_EQ(bytes, want);
}

/// An HLI1 header for one undirected vertex, up to the out-side count.
std::string Hli1Header() {
  std::string buf = "HLI1";
  PutU32(&buf, 0);  // undirected
  PutU32(&buf, 1);  // one vertex
  return buf;
}

/// `body` followed by its checksum: a file that reaches the body checks.
std::string Sealed(std::string body) {
  PutU64(&body, Fnv1a64(body.data(), body.size()));
  return body;
}

/// Writes `bytes` to `path` and requires Load to answer InvalidArgument.
void ExpectInvalid(const std::string& path, const std::string& bytes,
                   const std::string& what) {
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  RankMapping ranking;
  auto loaded = TwoHopIndex::Load(path, &ranking);
  ASSERT_FALSE(loaded.ok()) << what;
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << what << ": " << loaded.status();
}

TEST(TwoHopIndexIoTest, CraftedCountsFailBeforeAllocating) {
  auto dir = TempDir::Create("hli_crafted");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("crafted.hli");

  // A side count of 2^40.
  std::string side_count = Hli1Header();
  PutU64(&side_count, uint64_t{1} << 40);
  PutU32(&side_count, 0);
  ASSERT_EQ(side_count.size(), 24u);
  ExpectInvalid(path, Sealed(side_count), "side count");

  // One label whose length is 2^40.
  std::string label_len = Hli1Header();
  PutU64(&label_len, 1);
  PutU64(&label_len, uint64_t{1} << 40);
  ExpectInvalid(path, Sealed(label_len), "label length");
}

// Files whose every count is in bounds but whose shape or labels the
// index cannot hold. Each carries an identity rank section and is tried
// both as it ends there, with no checksum, and sealed with a valid one,
// so the shape and label checks run rather than the checksum.
TEST(TwoHopIndexIoTest, CraftedShapesAndLabelsFailCleanly) {
  auto dir = TempDir::Create("hli_shapes");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("crafted.hli");

  // Undirected, yet the in side holds one (empty) label.
  std::string in_side = Hli1Header();
  PutU64(&in_side, 1);  // out side: one empty label
  PutU64(&in_side, 0);
  PutU64(&in_side, 1);  // in side: one empty label
  PutU64(&in_side, 0);
  in_side = WithRanks(std::move(in_side), 1);

  // Two vertices, one label naming pivot 4 000 000 000.
  std::string far_pivot = "HLI1";
  PutU32(&far_pivot, 0);
  PutU32(&far_pivot, 2);
  PutU64(&far_pivot, 2);
  PutU64(&far_pivot, 0);
  PutU64(&far_pivot, 1);
  PutU32(&far_pivot, 4000000000u);
  PutU32(&far_pivot, 1);
  PutU64(&far_pivot, 0);
  far_pivot = WithRanks(std::move(far_pivot), 2);

  // Three vertices, a label whose pivots descend.
  std::string unsorted = "HLI1";
  PutU32(&unsorted, 0);
  PutU32(&unsorted, 3);
  PutU64(&unsorted, 3);
  PutU64(&unsorted, 0);
  PutU64(&unsorted, 0);
  PutU64(&unsorted, 2);
  PutU32(&unsorted, 1);
  PutU32(&unsorted, 1);
  PutU32(&unsorted, 0);
  PutU32(&unsorted, 2);
  PutU64(&unsorted, 0);
  unsorted = WithRanks(std::move(unsorted), 3);

  // Undirected files with one non-empty label (owner's) that breaks
  // one entry check.
  const auto one_label =
      [](uint32_t vertices, uint32_t owner,
         std::vector<std::pair<uint32_t, uint32_t>> entries) {
        std::string file = "HLI1";
        PutU32(&file, 0);
        PutU32(&file, vertices);
        PutU64(&file, vertices);
        for (uint32_t v = 0; v < vertices; ++v) {
          PutU64(&file, v == owner ? entries.size() : 0);
          if (v != owner) continue;
          for (const auto& [pivot, dist] : entries) {
            PutU32(&file, pivot);
            PutU32(&file, dist);
          }
        }
        PutU64(&file, 0);
        return WithRanks(std::move(file), vertices);
      };
  const std::string self_entry = one_label(2, 1, {{1, 1}});
  const std::string zero_dist = one_label(2, 1, {{0, 0}});
  const std::string inf_dist = one_label(2, 1, {{0, kInfDistance}});
  const std::string repeated = one_label(3, 2, {{0, 1}, {0, 2}});

  for (const auto& [bytes, what] :
       {std::pair{in_side, "undirected in side"},
        std::pair{far_pivot, "pivot out of range"},
        std::pair{unsorted, "unsorted label"},
        std::pair{self_entry, "self entry"},
        std::pair{zero_dist, "zero distance"},
        std::pair{inf_dist, "infinite distance"},
        std::pair{repeated, "repeated pivot"}}) {
    ExpectInvalid(path, bytes, std::string(what) + ", unsealed");
    ExpectInvalid(path, Sealed(bytes), std::string(what) + ", sealed");
  }

  // A directed header whose in side covers only one of three vertices.
  std::string short_in = "HLI1";
  PutU32(&short_in, 1);
  PutU32(&short_in, 3);
  PutU64(&short_in, 3);
  for (int v = 0; v < 3; ++v) PutU64(&short_in, 0);
  PutU64(&short_in, 1);
  PutU64(&short_in, 0);
  ExpectInvalid(path, Sealed(WithRanks(short_in, 3)),
                "short directed in side");
}

TEST(TwoHopIndexIoTest, FlippedBodyByteFailsTheChecksum) {
  auto dir = TempDir::Create("hli_flip");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("idx.hli");
  ASSERT_TRUE(PathIndex().Save(path, Identity(3)).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  // Every body byte past the magic, one at a time, the rank section's
  // too.
  for (size_t i = 4; i + 8 < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    ExpectInvalid(path, flipped, "flipped byte " + std::to_string(i));
  }
}

// Files from earlier builds carry an HFS1 copy of the labels after the
// body (and a checksum of that copy only). They must be refused with a
// message that says to rebuild them.
TEST(TwoHopIndexIoTest, OldFileWithHfs1TrailerIsRefused) {
  std::string file = "HLI1";
  PutU32(&file, 0);  // PathIndex(): L(1) = {(0, 1)}, L(2) = {(0, 2), (1, 1)}
  PutU32(&file, 3);
  PutU64(&file, 3);
  PutU64(&file, 0);
  PutU64(&file, 1);
  PutU32(&file, 0);
  PutU32(&file, 1);
  PutU64(&file, 2);
  PutU32(&file, 0);
  PutU32(&file, 2);
  PutU32(&file, 1);
  PutU32(&file, 1);
  PutU64(&file, 0);
  // The trailer: magic, flags (delta pivots), |V|, total entries, slot
  // sizes, pivot gaps, distances — then its own checksum. The last three
  // were varints; every value here is below 128, so each is one byte.
  std::string section = "HFS1";
  PutU8(&section, 2);
  PutU32(&section, 3);
  PutU64(&section, 3);
  for (const uint8_t v : {0, 1, 2, 1, 1, 1, 1, 2, 1}) PutU8(&section, v);
  file += section;
  PutU64(&file, Fnv1a64(section.data(), section.size()));

  auto dir = TempDir::Create("hli_old");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("old.hli");
  ASSERT_TRUE(WriteStringToFile(path, file).ok());
  RankMapping ranking;
  auto loaded = TwoHopIndex::Load(path, &ranking);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("rebuild"), std::string::npos)
      << loaded.status();
}

// TwoHopIndex::Load reads a file through one 1 MiB window. These tests
// use a directed weighted index whose HLI1 file spans several windows.
constexpr uint64_t kLoadWindow = uint64_t{1} << 20;

class TwoHopIndexWindowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GlpOptions glp;
    glp.num_vertices = 10000;
    glp.target_avg_degree = 8;
    glp.seed = 5;
    EdgeList edges = GenerateDirectedGlp(glp).ValueOrDie();
    AssignUniformWeights(&edges, 1, 100, 5);
    HopDbOptions options;
    options.build.num_threads = 2;
    index_ = new HopDbIndex(HopDbIndex::Build(edges, options).ValueOrDie());
    dir_ = new TempDir(TempDir::Create("hli_windows").ValueOrDie());
    path_ = new std::string(dir_->File("idx.hli"));
    index_->Save(*path_).CheckOK();
    bytes_ = new std::string;
    ReadFileToString(*path_, bytes_).CheckOK();
    // Where every label's length field and entries lie.
    labels_ = new std::vector<LabelBytes>;
    uint64_t at = 12;
    for (int side = 0; side < 2; ++side) {
      const uint64_t count = DecodeU64(Byte(at));
      at += 8;
      for (uint64_t i = 0; i < count; ++i) {
        const uint64_t len = DecodeU64(Byte(at));
        labels_->push_back({at, at + 8, at + 8 + 8 * len});
        at += 8 + 8 * len;
      }
    }
    ASSERT_EQ(at + 4 * index_->num_vertices() + 8, bytes_->size());
  }
  static void TearDownTestSuite() {
    delete labels_;
    delete bytes_;
    delete path_;
    delete dir_;
    delete index_;
  }

  /// One label's byte ranges: its length field at `length`, its
  /// entries in [entries, end).
  struct LabelBytes {
    uint64_t length;
    uint64_t entries;
    uint64_t end;
  };

  static const uint8_t* Byte(uint64_t at) {
    return reinterpret_cast<const uint8_t*>(bytes_->data()) + at;
  }

  /// `file` with its checksum recomputed over its body.
  static std::string Reseal(std::string file) {
    file.resize(file.size() - 8);
    PutU64(&file, Fnv1a64(file.data(), file.size()));
    return file;
  }

  static HopDbIndex* index_;
  static TempDir* dir_;
  static std::string* path_;
  static std::string* bytes_;
  static std::vector<LabelBytes>* labels_;
};

HopDbIndex* TwoHopIndexWindowTest::index_ = nullptr;
TempDir* TwoHopIndexWindowTest::dir_ = nullptr;
std::string* TwoHopIndexWindowTest::path_ = nullptr;
std::string* TwoHopIndexWindowTest::bytes_ = nullptr;
std::vector<TwoHopIndexWindowTest::LabelBytes>*
    TwoHopIndexWindowTest::labels_ = nullptr;

TEST_F(TwoHopIndexWindowTest, RoundTripsAcrossWindows) {
  ASSERT_GT(bytes_->size(), 2 * kLoadWindow) << "spans three windows";
  // At every window edge a label's entries go on, with at least one
  // whole entry on either side of it.
  for (uint64_t edge = kLoadWindow; edge < bytes_->size();
       edge += kLoadWindow) {
    EXPECT_TRUE(std::any_of(labels_->begin(), labels_->end(),
                            [&](const LabelBytes& l) {
                              return l.entries + 8 <= edge &&
                                     edge + 8 <= l.end;
                            }))
        << "no label across the edge at " << edge;
  }

  RankMapping ranking;
  auto back = TwoHopIndex::Load(*path_, &ranking);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(ranking.rank_to_orig, index_->ranking().rank_to_orig);
  const TwoHopIndex& want = index_->label_index();
  ASSERT_TRUE(back->directed());
  ASSERT_EQ(back->num_vertices(), want.num_vertices());
  EXPECT_EQ(back->TotalEntries(), want.TotalEntries());
  for (VertexId v = 0; v < want.num_vertices(); ++v) {
    ASSERT_TRUE(std::ranges::equal(back->OutLabel(v), want.OutLabel(v)))
        << "out label of " << v;
    ASSERT_TRUE(std::ranges::equal(back->InLabel(v), want.InLabel(v)))
        << "in label of " << v;
  }
  const std::string resaved = dir_->File("resaved.hli");
  ASSERT_TRUE(back->Save(resaved, ranking).ok());
  std::string again;
  ASSERT_TRUE(ReadFileToString(resaved, &again).ok());
  EXPECT_TRUE(again == *bytes_) << "re-saved bytes differ";
}

TEST_F(TwoHopIndexWindowTest, FlippedByteInTheLastWindowFails) {
  const uint64_t last = bytes_->size() / kLoadWindow * kLoadWindow;
  ASSERT_GE(last, 2 * kLoadWindow);
  // An entry byte (pass 1 parses, the checksum fails) and a length byte
  // (pass 1 fails, and the checksum is reported).
  const auto in_last = std::find_if(
      labels_->begin(), labels_->end(), [&](const LabelBytes& l) {
        return l.length > last && l.end > l.entries;
      });
  ASSERT_NE(in_last, labels_->end());
  const std::string path = dir_->File("flipped.hli");
  for (const uint64_t at : {in_last->entries + 3, in_last->length + 2}) {
    std::string flipped = *bytes_;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x10);
    ExpectInvalid(path, flipped, "flipped byte " + std::to_string(at));
    RankMapping ranking;
    EXPECT_NE(TwoHopIndex::Load(path, &ranking).status().message().find(
                  "checksum mismatch"),
              std::string::npos);
  }
}

TEST_F(TwoHopIndexWindowTest, TruncationsAtWindowEdgesFail) {
  const std::string path = dir_->File("truncated.hli");
  for (uint64_t edge = kLoadWindow; edge < bytes_->size();
       edge += kLoadWindow) {
    for (const uint64_t keep : {edge - 1, edge, edge + 1}) {
      ExpectInvalid(path, bytes_->substr(0, keep),
                    "kept " + std::to_string(keep));
    }
  }
}

TEST_F(TwoHopIndexWindowTest, SealedOverrunningLengthFails) {
  // A label past the first window whose length runs past the body, in a
  // file with a valid checksum: pass 1 refuses it before anything is
  // sized.
  const auto late = std::find_if(
      labels_->begin(), labels_->end(),
      [](const LabelBytes& l) { return l.length > kLoadWindow; });
  ASSERT_NE(late, labels_->end());
  const std::string path = dir_->File("overrun.hli");
  for (const uint64_t len :
       {(bytes_->size() - late->entries) / 8, uint64_t{1} << 40}) {
    std::string file = *bytes_;
    EncodeU64(len, reinterpret_cast<uint8_t*>(file.data()) + late->length);
    file = Reseal(std::move(file));
    ExpectInvalid(path, file, "length " + std::to_string(len));
    RankMapping ranking;
    const Status status = TwoHopIndex::Load(path, &ranking).status();
    EXPECT_NE(status.message().find("label length exceeds file size"),
              std::string::npos)
        << status;
  }
}

TEST(TwoHopIndexIoTest, DirectoryIsRefused) {
  auto dir = TempDir::Create("hli_dir");
  ASSERT_TRUE(dir.ok());
  RankMapping ranking;
  EXPECT_EQ(TwoHopIndex::Load(dir->path(), &ranking).status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(HopDbIndex::Load(dir->path()).status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace hopdb
