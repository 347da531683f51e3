#include "labeling/two_hop_index.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "gen/glp.h"
#include "gen/weights.h"
#include "graph/ranking.h"
#include "hli1_files.h"
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

// HLI1 codes distances as varints, whatever their size; the loaded store
// picks its lane width from them as the built one did. A file with a
// distance above 127 loads at width 4 — the freeze widens its lanes when
// the first such distance arrives, after narrower slots were filled — a
// file without one at width 1, and both answer every pair as the index
// they were saved from, with the same entries.
TEST(TwoHopIndexTest, LoadPicksTheLaneWidthFromTheFile) {
  auto dir = TempDir::Create("hli_width");
  ASSERT_TRUE(dir.ok());
  for (const Distance heavy : {Distance{1}, Distance{300}}) {
    SCOPED_TRACE("heavy weight " + std::to_string(heavy));
    GlpOptions glp;
    glp.num_vertices = 400;
    glp.target_avg_degree = 4;
    glp.seed = 21;
    EdgeList edges = GenerateDirectedGlp(glp).ValueOrDie();
    // Unit weights but for every 40th edge.
    edges.set_weighted(true);
    for (size_t e = 0; e < edges.num_edges(); e += 40) {
      edges.mutable_edges()[e].weight = heavy;
    }
    const HopDbIndex built = HopDbIndex::Build(edges).ValueOrDie();
    const TwoHopIndex& want = built.label_index();
    const uint32_t width = heavy > kMaxNarrowDistance ? 4 : 1;
    ASSERT_EQ(want.labels().dist_width, width);
    if (width == 4) {
      // Narrow entries come before the first wide one.
      const LabelSetView view = want.labels();
      uint64_t narrow_before = 0;
      bool wide_seen = false;
      for (size_t slot = 0; slot < view.num_slots() && !wide_seen; ++slot) {
        const FlatLabelStore::View label = view.Slot(slot);
        for (uint32_t i = 0; i < label.size && !wide_seen; ++i) {
          wide_seen = label.dist(i) > kMaxNarrowDistance;
          narrow_before += wide_seen ? 0 : 1;
        }
      }
      ASSERT_GT(narrow_before, 0u);
    }
    // Two-step concatenation sidesteps a GCC 12 -Wrestrict false
    // positive (GCC bug 105651) on `const char* + std::string&&`.
    std::string name = "w";
    name += std::to_string(heavy);
    const std::string path = dir->File(name);
    ASSERT_TRUE(built.Save(path).ok());
    RankMapping ranking;
    auto back = TwoHopIndex::Load(path, &ranking);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->labels().dist_width, width);
    for (VertexId v = 0; v < want.num_vertices(); ++v) {
      ASSERT_TRUE(std::ranges::equal(back->OutLabel(v), want.OutLabel(v)));
      ASSERT_TRUE(std::ranges::equal(back->InLabel(v), want.InLabel(v)));
    }
    for (VertexId s = 0; s < want.num_vertices(); s += 3) {
      for (VertexId t = 0; t < want.num_vertices(); ++t) {
        ASSERT_EQ(back->Query(s, t), want.Query(s, t))
            << "s=" << s << " t=" << t;
      }
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
// docs/FORMATS.md layout: header, lengths section (out side, then in
// side), entries as (pivot gap, distance) varints, rank section, then
// the FNV-1a-64 of everything before it.
TEST(TwoHopIndexIoTest, SaveMatchesDocumentedLayout) {
  std::vector<LabelVector> out(3), in(3);
  out[1] = {{0, 1}};
  out[2] = {{0, 2}, {1, 1}};
  in[2] = {{1, 300}};
  TwoHopIndex index(std::move(out), std::move(in), /*directed=*/true);
  auto dir = TempDir::Create("hli_layout");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("idx.hli");
  ASSERT_TRUE(index.Save(path, RankingFromOrder({1, 2, 0})).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());

  // Layout word 3: the compact layout (bit 1), directed (bit 0).
  std::string want("HLI1\x03\0\0\0\x03\0\0\0", 12);
  want += std::string("\x00\x01\x02\x00\x00\x01", 6);  // lengths
  want += std::string("\x00\x01", 2);          // out[1]: pivot 0, dist 1
  want += std::string("\x00\x02\x00\x01", 4);  // out[2]: 0 then 0 + 1 + 0
  want += std::string("\x01\xac\x02", 3);      // in[2]: pivot 1, dist 300
  for (const uint32_t id : {1, 2, 0}) PutU32(&want, id);  // rank section
  want = Sealed(std::move(want));
  ASSERT_EQ(want.size(), 47u);
  EXPECT_EQ(bytes, want);
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

/// The message Load refuses `bytes` with, written to `path`.
std::string Refusal(const std::string& path, const std::string& bytes) {
  if (!WriteStringToFile(path, bytes).ok()) return "write failed";
  RankMapping ranking;
  const Status status = TwoHopIndex::Load(path, &ranking).status();
  if (status.code() != StatusCode::kInvalidArgument) {
    return "not InvalidArgument: " + status.ToString();
  }
  return status.message();
}

/// The byte values of `values`, as a string.
std::string Bytes(std::vector<uint8_t> values) {
  return std::string(values.begin(), values.end());
}

/// A compact HLI1 body: the magic, `layout`, |V| = n, the lengths and
/// entry sections as given, then the identity rank section.
std::string CompactBody(uint32_t layout, uint32_t n,
                        const std::string& lengths,
                        const std::string& entries) {
  std::string body = "HLI1";
  PutU32(&body, layout);
  PutU32(&body, n);
  return WithRanks(body + lengths + entries, n);
}

TEST(TwoHopIndexIoTest, CraftedCountsFailBeforeAllocating) {
  auto dir = TempDir::Create("hli_crafted");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("crafted.hli");

  // |V| = 2^30 in a 24-byte file: its lengths and ranks cannot fit.
  std::string vertices = "HLI1";
  PutU32(&vertices, 2);
  PutU32(&vertices, uint32_t{1} << 30);
  PutU32(&vertices, 0);
  ASSERT_EQ(Sealed(vertices).size(), 24u);
  EXPECT_NE(Refusal(path, Sealed(vertices)).find("exceed the file size"),
            std::string::npos);

  // One vertex whose label length is 2^31.
  std::string length;
  PutVarint(&length, uint32_t{1} << 31);
  EXPECT_NE(Refusal(path, Sealed(CompactBody(2, 1, length, "")))
                .find("label lengths exceed the entry section"),
            std::string::npos);
}

// Files that break one rule of the compact layout, each on a small
// index. Sealed with a valid checksum, each is refused for its own
// fault; with a wrong checksum, each reports the checksum instead: the
// errors come checksum first, then shape (pass 1), then entries.
TEST(TwoHopIndexIoTest, CraftedCompactFilesFailInOrder) {
  auto dir = TempDir::Create("hli_compact");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("crafted.hli");
  // Undirected, 3 vertices; the lengths are of L(0), L(1), L(2).
  const auto undirected = [](std::vector<uint8_t> lengths,
                             std::vector<uint8_t> entries) {
    return CompactBody(2, 3, Bytes(lengths), Bytes(entries));
  };
  const std::vector<VertexId> ids = {0, 1, 2};
  std::string fixed_width = FixedWidthHli1(PathIndex(), &ids);
  fixed_width.resize(fixed_width.size() - 8);
  const struct {
    std::string body;
    const char* what;
    const char* refusal;
  } cases[] = {
      {undirected({0, 1, 0}, {0x00, 0x81, 0x00}), "overlong distance",
       "invalid HLI1 labels (a varint is overlong"},
      {undirected({0x80, 0x00, 1, 0}, {0x00, 0x01}), "overlong length",
       "corrupt HLI1 body (a varint is overlong"},
      {undirected({0, 1, 0}, {0x00, 0xff, 0xff, 0xff, 0xff, 0x1f}),
       "distance over 32 bits", "invalid HLI1 labels (a varint"},
      {undirected({0, 1, 0}, {0x00, 0x81}), "distance running into ranks",
       "invalid HLI1 labels (a varint"},
      {undirected({0, 1, 1}, {0x00, 0x81, 0x01, 0x00}),
       "entry section ending late", "invalid HLI1 labels (a varint"},
      {undirected({0, 1, 0}, {0x00, 0x01, 0x00}),
       "entry section ending early",
       "the entry section ends before the rank section"},
      {undirected({0, 0, 2}, {0x01, 0x01, 0x01, 0x01}),
       "pivot gap reaching |V|", "a pivot gap reaches |V|"},
      {undirected({0, 1, 0}, {0x00, 0x00}), "zero distance",
       "a distance is 0 or infinite"},
      {undirected({0, 1, 0}, {0x00, 0xff, 0xff, 0xff, 0xff, 0x0f}),
       "infinite distance", "a distance is 0 or infinite"},
      {undirected({0, 1, 2}, {0x00, 0x01, 0x00, 0x02}),
       "length sum beyond the entry bytes",
       "label lengths exceed the entry section"},
      {undirected({0, 1, 0}, {0x01, 0x01}), "self entry",
       "invalid HLI1 labels (a label stores a trivial self entry"},
      {CompactBody(2, 1, Bytes({0, 0}), ""), "undirected in side",
       "the entry section ends before the rank section"},
      {CompactBody(3, 3, Bytes({0, 0, 0}), ""), "directed, no in side",
       "corrupt HLI1 body (label lengths and rank section exceed the file "
       "size"},
      {CompactBody(6, 3, Bytes({0, 0, 0}), ""), "unknown layout word",
       "unknown layout word 6"},
      {fixed_width, "pre-change fixed-width file", "rebuild the index"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    std::string sealed = Sealed(c.body);
    EXPECT_NE(Refusal(path, sealed).find(c.refusal), std::string::npos)
        << Refusal(path, sealed);
    sealed.back() = static_cast<char>(sealed.back() ^ 0x01);
    EXPECT_NE(Refusal(path, sealed).find("checksum mismatch"),
              std::string::npos)
        << Refusal(path, sealed);
  }
  // A bad entry beside a rank section that is no permutation reports the
  // entry.
  std::string zero_dist = "HLI1";
  PutU32(&zero_dist, 2);
  PutU32(&zero_dist, 3);
  zero_dist += Bytes({0, 1, 0, 0x00, 0x00});
  for (int i = 0; i < 3; ++i) PutU32(&zero_dist, 0);  // ids 0, 0, 0
  EXPECT_NE(Refusal(path, Sealed(zero_dist)).find("a distance is 0"),
            std::string::npos)
      << Refusal(path, Sealed(zero_dist));
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

// Files from earlier builds must be refused with a message that says to
// rebuild them: the fixed-width layout with its rank section (the last
// layout before the compact one), without it (ranks in a .perm
// sidecar), and with an HFS1 copy of the labels after the body (and a
// checksum of that copy only), which fails the checksum.
TEST(TwoHopIndexIoTest, FilesOfEarlierLayoutsAreRefused) {
  const TwoHopIndex index = PathIndex();
  const std::vector<VertexId> ranks = {2, 0, 1};
  std::string hfs1 = FixedWidthHli1(index, nullptr);
  hfs1.resize(hfs1.size() - 8);
  // The trailer: magic, flags (delta pivots), |V|, total entries, slot
  // sizes, pivot gaps, distances — then its own checksum. The last three
  // were varints; every value here is below 128, so each is one byte.
  std::string section = "HFS1";
  PutU8(&section, 2);
  PutU32(&section, 3);
  PutU64(&section, 3);
  for (const uint8_t v : {0, 1, 2, 1, 1, 1, 1, 2, 1}) PutU8(&section, v);
  hfs1 += section;
  PutU64(&hfs1, Fnv1a64(section.data(), section.size()));

  auto dir = TempDir::Create("hli_old");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("old.hli");
  for (const auto& [file, what] :
       {std::pair{FixedWidthHli1(index, &ranks), "fixed width"},
        std::pair{FixedWidthHli1(index, nullptr), "fixed width, no ranks"},
        std::pair{hfs1, "HFS1 trailer"}}) {
    ASSERT_TRUE(WriteStringToFile(path, file).ok());
    RankMapping ranking;
    auto loaded = TwoHopIndex::Load(path, &ranking);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(loaded.status().message().find("rebuild"), std::string::npos)
        << what << ": " << loaded.status();
    EXPECT_EQ(HopDbIndex::Load(path).status().code(),
              StatusCode::kInvalidArgument)
        << what;
  }
}

/// The names of the files in `dir`, sorted.
std::vector<std::string> FileNames(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// HLI1 cannot spell a label that is not strictly sorted, so Save refuses
// one instead of writing a file Load would refuse; the target is left as
// it was.
TEST(TwoHopIndexIoTest, SaveRefusesUnsortedLabels) {
  auto dir = TempDir::Create("hli_unsorted");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("idx.hli");
  ASSERT_TRUE(PathIndex().Save(path, Identity(3)).ok());
  for (const LabelVector& label :
       {LabelVector{{1, 1}, {0, 2}}, LabelVector{{0, 1}, {0, 2}}}) {
    std::vector<LabelVector> out(3);
    out[2] = label;
    const TwoHopIndex bad(std::move(out), {}, /*directed=*/false);
    EXPECT_EQ(bad.Save(path, Identity(3)).code(),
              StatusCode::kInvalidArgument);
  }
  RankMapping ranking;
  auto back = TwoHopIndex::Load(path, &ranking);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->TotalEntries(), 3u);
  EXPECT_EQ(FileNames(dir->path()), std::vector<std::string>{"idx.hli"});
}

// An 8-byte entry (a 3-byte pivot gap, a 5-byte distance) placed so
// that it starts 1..8 bytes before the load window's first edge, 1 MiB
// into the file: each split of it across two windows decodes whole, and
// the file re-saves byte for byte.
TEST(TwoHopIndexIoTest, EntriesAcrossTheFirstWindowEdgeDecodeWhole) {
  constexpr VertexId kVertices = 400000;
  constexpr uint32_t kGap = 20000;          // 3 varint bytes
  constexpr uint32_t kFar = 0xfffffffeu;    // 5 varint bytes
  constexpr uint64_t kEdge = uint64_t{1} << 20;
  auto dir = TempDir::Create("hli_edge");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("edge.hli");
  for (uint64_t before = 1; before <= 8; ++before) {
    SCOPED_TRACE("entry starts " + std::to_string(before) +
                 " bytes before the edge");
    // Every label is empty but the last vertex's: entries of 2 bytes
    // (gap 0, dist 1), the first `shift` of them 3 (dist 200), then the
    // 8-byte entry, then three more of 2 bytes.
    const uint64_t entries_begin = 12 + (kVertices - 1) + 3;
    const uint64_t lead = kEdge - before - entries_begin;
    const uint64_t shift = lead % 2;
    const uint64_t j = (lead - shift) / 2;
    LabelVector label;
    for (uint64_t i = 0; i < j; ++i) {
      label.push_back({static_cast<VertexId>(i), i < shift ? 200u : 1u});
    }
    const VertexId far_pivot = static_cast<VertexId>(j) + kGap;
    label.push_back({far_pivot, kFar});
    for (VertexId i = 1; i <= 3; ++i) label.push_back({far_pivot + i, 1});
    std::string body = "HLI1";
    PutU32(&body, 2);
    PutU32(&body, kVertices);
    body.append(kVertices - 1, '\0');
    PutVarint(&body, static_cast<uint32_t>(label.size()));
    ASSERT_EQ(body.size(), entries_begin);
    uint64_t next = 0;
    for (const LabelEntry& e : label) {
      PutVarint(&body, static_cast<uint32_t>(e.pivot - next));
      PutVarint(&body, e.dist);
      next = e.pivot + 1;
      if (e.dist == kFar) {
        ASSERT_EQ(body.size(), kEdge + 8 - before);
      }
    }
    const std::string file = Sealed(WithRanks(std::move(body), kVertices));
    ASSERT_TRUE(WriteStringToFile(path, file).ok());

    RankMapping ranking;
    auto back = TwoHopIndex::Load(path, &ranking);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE(std::ranges::equal(back->OutLabel(kVertices - 1), label));
    EXPECT_EQ(back->TotalEntries(), label.size());
    ASSERT_TRUE(back->Save(path, ranking).ok());
    std::string again;
    ASSERT_TRUE(ReadFileToString(path, &again).ok());
    EXPECT_TRUE(again == file) << "re-saved bytes differ";
  }
}

// TwoHopIndex::Load and Save go through one 1 MiB window. These tests
// use a directed weighted index whose HLI1 file spans three windows.
constexpr uint64_t kLoadWindow = uint64_t{1} << 20;

class TwoHopIndexWindowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GlpOptions glp;
    glp.num_vertices = 25000;
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
    // Where every label's length and entries lie.
    labels_ = new std::vector<LabelBytes>;
    const uint8_t* p = Byte(12);
    const uint8_t* const body_end = Byte(bytes_->size() - 8);
    for (VertexId slot = 0; slot < 2 * index_->num_vertices(); ++slot) {
      LabelBytes l;
      l.length = Offset(p);
      ASSERT_TRUE(DecodeVarint32(&p, body_end, &l.size));
      labels_->push_back(l);
    }
    for (LabelBytes& l : *labels_) {
      l.entries = Offset(p);
      for (uint32_t i = 0; i < 2 * l.size; ++i) {
        uint32_t v = 0;
        ASSERT_TRUE(DecodeVarint32(&p, body_end, &v));
      }
      l.end = Offset(p);
    }
    ASSERT_EQ(Offset(p) + 4 * index_->num_vertices() + 8, bytes_->size());
  }
  static void TearDownTestSuite() {
    delete labels_;
    delete bytes_;
    delete path_;
    delete dir_;
    delete index_;
  }

  /// One label's bytes: its length varint at `length` (of value `size`),
  /// its entry varints in [entries, end).
  struct LabelBytes {
    uint64_t length = 0;
    uint32_t size = 0;
    uint64_t entries = 0;
    uint64_t end = 0;
  };

  static const uint8_t* Byte(uint64_t at) {
    return reinterpret_cast<const uint8_t*>(bytes_->data()) + at;
  }
  static uint64_t Offset(const uint8_t* p) {
    return static_cast<uint64_t>(p - Byte(0));
  }

  /// `file` with its checksum recomputed over its body.
  static std::string Reseal(std::string file) {
    file.resize(file.size() - 8);
    return Sealed(std::move(file));
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
  // At every window edge a label's varints go on, with at least one
  // whole entry (two bytes or more) on either side of it.
  for (uint64_t edge = kLoadWindow; edge < bytes_->size();
       edge += kLoadWindow) {
    EXPECT_TRUE(std::any_of(labels_->begin(), labels_->end(),
                            [&](const LabelBytes& l) {
                              return l.entries + 2 <= edge &&
                                     edge + 2 <= l.end;
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

TEST_F(TwoHopIndexWindowTest, FlippedEntryOrLengthByteFails) {
  const uint64_t last = bytes_->size() / kLoadWindow * kLoadWindow;
  ASSERT_GE(last, 2 * kLoadWindow);
  // An entry byte in the last window (pass 1 parses, the checksum fails)
  // and a length byte, in the lengths section's first window (pass 1
  // may fail or not); each reports the checksum.
  const auto in_last = std::find_if(
      labels_->begin(), labels_->end(), [&](const LabelBytes& l) {
        return l.entries > last && l.end > l.entries;
      });
  ASSERT_NE(in_last, labels_->end());
  const auto long_label = std::find_if(
      labels_->begin(), labels_->end(),
      [](const LabelBytes& l) { return l.size > 0; });
  ASSERT_NE(long_label, labels_->end());
  const std::string path = dir_->File("flipped.hli");
  for (const uint64_t at : {in_last->entries + 1, long_label->length}) {
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
  // The last label's length re-encoded so that the lengths ask for more
  // entries than the entry section's bytes can hold (2 bytes an entry at
  // least), in a file with a valid checksum: pass 1 refuses it before
  // anything is sized.
  const LabelBytes& last = labels_->back();
  const uint64_t entry_bytes = labels_->back().end - labels_->front().entries;
  uint64_t total = 0;
  for (const LabelBytes& l : *labels_) total += l.size;
  ASSERT_LE(2 * total, entry_bytes);
  const std::string path = dir_->File("overrun.hli");
  for (const uint64_t len :
       {last.size + (entry_bytes - 2 * total) / 2 + 1, uint64_t{1} << 31}) {
    std::string file = bytes_->substr(0, last.length);
    PutVarint(&file, static_cast<uint32_t>(len));
    file += bytes_->substr(labels_->front().entries);
    const std::string message = Refusal(path, Reseal(std::move(file)));
    EXPECT_NE(message.find("label lengths exceed the entry section"),
              std::string::npos)
        << "length " << len << ": " << message;
  }
}

// Saves `index` over `path` with the process's file size limit at
// `limit` bytes and SIGXFSZ ignored, so that the write past the limit
// fails with EFBIG as a full disk would fail it; exits 0 iff Save
// returned IOError.
[[noreturn]] void SaveWithFileSizeLimit(const HopDbIndex& index,
                                        const std::string& path,
                                        rlim_t limit) {
  std::signal(SIGXFSZ, SIG_IGN);
  const rlimit cap{limit, limit};
  if (setrlimit(RLIMIT_FSIZE, &cap) != 0) std::_Exit(2);
  std::_Exit(index.Save(path).code() == StatusCode::kIOError ? 0 : 1);
}

// Save writes a temporary file beside its target and renames it over
// the target only once the file is whole and synced. A save that fails
// part way (before its first window is flushed, after it, or on the
// last byte) leaves the old index loadable with its old answers and no
// temporary file behind, and a reader that opened the old file before a
// save keeps reading the old bytes.
TEST_F(TwoHopIndexWindowTest, SaveReplacesTheFileAtomically) {
  auto dir = TempDir::Create("hli_atomic");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("idx.hli");
  const TwoHopIndex old_index = PathIndex();
  ASSERT_TRUE(old_index.Save(path, Identity(3)).ok());
  std::string old_bytes;
  ASSERT_TRUE(ReadFileToString(path, &old_bytes).ok());

  const uint64_t new_size = bytes_->size();
  for (const rlim_t limit : {rlim_t{0}, rlim_t{new_size / 2},
                             rlim_t{new_size - 1}}) {
    SCOPED_TRACE("file size limit " + std::to_string(limit));
    EXPECT_EXIT(SaveWithFileSizeLimit(*index_, path, limit),
                ::testing::ExitedWithCode(0), "");
    EXPECT_EQ(FileNames(dir->path()), std::vector<std::string>{"idx.hli"});
    RankMapping ranking;
    auto back = TwoHopIndex::Load(path, &ranking);
    ASSERT_TRUE(back.ok()) << back.status();
    for (VertexId s = 0; s < 3; ++s) {
      for (VertexId t = 0; t < 3; ++t) {
        EXPECT_EQ(back->Query(s, t), old_index.Query(s, t));
      }
    }
  }

  std::ifstream reader(path, std::ios::binary);
  ASSERT_TRUE(index_->Save(path).ok());
  std::string saved;
  ASSERT_TRUE(ReadFileToString(path, &saved).ok());
  EXPECT_TRUE(saved == *bytes_) << "the saved file differs";
  const std::string held((std::istreambuf_iterator<char>(reader)),
                         std::istreambuf_iterator<char>());
  EXPECT_TRUE(held == old_bytes) << "an open reader saw the new file";
  EXPECT_EQ(FileNames(dir->path()), std::vector<std::string>{"idx.hli"});
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
