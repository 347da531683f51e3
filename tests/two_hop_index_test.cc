#include "labeling/two_hop_index.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

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
  ASSERT_TRUE(idx.Save(path).ok());
  auto back = TwoHopIndex::Load(path);
  ASSERT_TRUE(back.ok());
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
  std::string path = dir->File("junk");
  ASSERT_TRUE(WriteStringToFile(path, "garbage").ok());
  EXPECT_FALSE(TwoHopIndex::Load(path).ok());
}

TEST(QueryLabelHalvesTest, TrivialPivots) {
  // out_s contains pivot t directly.
  LabelVector out_s = {{2, 3}};
  EXPECT_EQ(QueryLabelHalves(out_s, {}, 5, 2), 3u);
  // in_t contains pivot s directly.
  LabelVector in_t = {{5, 4}};
  EXPECT_EQ(QueryLabelHalves({}, in_t, 5, 9), 4u);
  // Same vertex.
  EXPECT_EQ(QueryLabelHalves({}, {}, 3, 3), 0u);
  // Nothing in common.
  EXPECT_EQ(QueryLabelHalves(out_s, in_t, 7, 8), kInfDistance);
}

TEST(TwoHopIndexIoTest, TruncatedFilesFailCleanly) {
  std::vector<LabelVector> out(3), in(3);
  out[1] = {{0, 1}};
  in[2] = {{0, 2}, {1, 1}};
  TwoHopIndex index(std::move(out), std::move(in), /*directed=*/true);

  auto dir = TempDir::Create("hli_fail");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("idx.hli");
  ASSERT_TRUE(index.Save(path).ok());
  std::string blob;
  ASSERT_TRUE(ReadFileToString(path, &blob).ok());

  // Every strict prefix must fail to load, never crash or mis-load.
  const std::string trunc_path = dir->File("trunc.hli");
  for (size_t keep = 0; keep < blob.size(); ++keep) {
    ASSERT_TRUE(WriteStringToFile(trunc_path, blob.substr(0, keep)).ok());
    auto loaded = TwoHopIndex::Load(trunc_path);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "kept " << keep << ": " << loaded.status();
  }

  // Wrong magic.
  std::string bad = blob;
  bad[0] = 'Z';
  ASSERT_TRUE(WriteStringToFile(trunc_path, bad).ok());
  EXPECT_FALSE(TwoHopIndex::Load(trunc_path).ok());
}

// The HLI1 bytes of a 3-vertex directed index, spelled out from the
// docs/FORMATS.md layout: header, out side, in side, then the FNV-1a-64
// of everything before it.
TEST(TwoHopIndexIoTest, SaveMatchesDocumentedLayout) {
  std::vector<LabelVector> out(3), in(3);
  out[1] = {{0, 1}};
  out[2] = {{0, 2}, {1, 1}};
  in[2] = {{0, 4}};
  TwoHopIndex index(std::move(out), std::move(in), /*directed=*/true);
  auto dir = TempDir::Create("hli_layout");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("idx.hli");
  ASSERT_TRUE(index.Save(path).ok());
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
  PutU64(&want, Fnv1a64(want.data(), want.size()));
  ASSERT_EQ(want.size(), 116u);
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
  auto loaded = TwoHopIndex::Load(path);
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
// index cannot hold. Each is tried both as it ends after the label body
// (the layout of earlier builds) and sealed with a valid checksum, so
// the shape and label checks run rather than the checksum.
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

  for (const auto& [bytes, what] :
       {std::pair{in_side, "undirected in side"},
        std::pair{far_pivot, "pivot out of range"},
        std::pair{unsorted, "unsorted label"}}) {
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
  ExpectInvalid(path, Sealed(short_in), "short directed in side");
}

TEST(TwoHopIndexIoTest, FlippedBodyByteFailsTheChecksum) {
  auto dir = TempDir::Create("hli_flip");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("idx.hli");
  ASSERT_TRUE(PathIndex().Save(path).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  // Every body byte past the magic, one at a time.
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
  // sizes, pivot gaps, distances — then its own checksum.
  std::string section = "HFS1";
  PutU8(&section, 2);
  PutU32(&section, 3);
  PutU64(&section, 3);
  for (const uint64_t v : {0, 1, 2, 1, 1, 1, 1, 2, 1}) {
    PutVarint64(&section, v);
  }
  file += section;
  PutU64(&file, Fnv1a64(section.data(), section.size()));

  auto dir = TempDir::Create("hli_old");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("old.hli");
  ASSERT_TRUE(WriteStringToFile(path, file).ok());
  auto loaded = TwoHopIndex::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("rebuild"), std::string::npos)
      << loaded.status();
}

}  // namespace
}  // namespace hopdb
