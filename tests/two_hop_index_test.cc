#include "labeling/two_hop_index.h"

#include <gtest/gtest.h>

#include "io/temp_dir.h"
#include "util/serde.h"
#include "labeling/label_entry.h"

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
  for (size_t keep = 0; keep < blob.size(); keep += 3) {
    ASSERT_TRUE(WriteStringToFile(trunc_path, blob.substr(0, keep)).ok());
    EXPECT_FALSE(TwoHopIndex::Load(trunc_path).ok()) << "kept " << keep;
  }

  // Wrong magic.
  std::string bad = blob;
  bad[0] = 'Z';
  ASSERT_TRUE(WriteStringToFile(trunc_path, bad).ok());
  EXPECT_FALSE(TwoHopIndex::Load(trunc_path).ok());
}

/// An HLI1 header for one undirected vertex, up to the out-side count.
std::string Hli1Header() {
  std::string buf = "HLI1";
  PutU32(&buf, 0);  // undirected
  PutU32(&buf, 1);  // one vertex
  return buf;
}

TEST(TwoHopIndexIoTest, CraftedCountsFailBeforeAllocating) {
  auto dir = TempDir::Create("hli_crafted");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("crafted.hli");
  auto expect_invalid = [&](const std::string& bytes, const char* what) {
    ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
    auto loaded = TwoHopIndex::Load(path);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << what << ": " << loaded.status();
  };

  // 24 bytes whose side count is 2^40.
  std::string side_count = Hli1Header();
  PutU64(&side_count, uint64_t{1} << 40);
  PutU32(&side_count, 0);
  ASSERT_EQ(side_count.size(), 24u);
  expect_invalid(side_count, "side count");

  // One label whose length is 2^40.
  std::string label_len = Hli1Header();
  PutU64(&label_len, 1);
  PutU64(&label_len, uint64_t{1} << 40);
  expect_invalid(label_len, "label length");

  // A well-formed body followed by a checksummed HFS1 section whose
  // header claims 2^32 - 1 slots, then one whose slot lengths claim more
  // entries than the bytes left can encode.
  std::string body = Hli1Header();
  PutU64(&body, 1);  // out side: one empty label
  PutU64(&body, 0);
  PutU64(&body, 0);  // in side: none
  auto with_section = [&](const std::string& section) {
    std::string file = body + section;
    PutU64(&file, Fnv1a64(section.data(), section.size()));
    return file;
  };
  std::string slots = "HFS1";
  PutU8(&slots, 0);
  PutU32(&slots, 0xffffffffu);
  PutU64(&slots, 0);
  expect_invalid(with_section(slots), "HFS1 slot count");
  constexpr uint32_t kSlots = 64;
  std::string entries = "HFS1";
  PutU8(&entries, 0);
  PutU32(&entries, kSlots);
  PutU64(&entries, uint64_t{kSlots} * kSlots);
  for (uint32_t s = 0; s < kSlots; ++s) PutVarint64(&entries, kSlots);
  expect_invalid(with_section(entries), "HFS1 total entries");
}

}  // namespace
}  // namespace hopdb
