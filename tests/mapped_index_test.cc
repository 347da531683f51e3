// HLI2 / MappedIndex coverage: convert round trips are query-identical
// to the source index at both distance-lane widths, every engine (point,
// one-to-many, KNN) agrees between the heap and mmap representations,
// and malformed files — truncated, bit-flipped header/metadata/arena,
// crafted offset tables, wrong magic, a retired version, a width word
// other than 1 or 4 — fail with clean checksum/validation errors instead
// of crashing (the suite runs under ASan/TSan in CI). The arenas' tail
// lanes are read by the kernels' block loads but never change an answer. Also covers read-only file permissions,
// the atomic replacement of a file being written over, and the
// LoadServingSnapshot format dispatch.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen/barabasi_albert.h"
#include "gen/glp.h"
#include "gen/weights.h"
#include "graph/csr_graph.h"
#include "hopdb.h"
#include "io/temp_dir.h"
#include "labeling/mapped_index.h"
#include "labeling/query_kernel.h"
#include "query/batch.h"
#include "query/knn.h"
#include "server/index_registry.h"
#include "server/index_snapshot.h"
#include "util/random.h"
#include "util/serde.h"

namespace hopdb {
namespace {

/// A GLP graph; weighted graphs get weights in [1, max_weight].
EdgeList TestGraph(VertexId n, uint64_t seed, bool directed, bool weighted,
                   Distance max_weight = 7) {
  GlpOptions options;
  options.num_vertices = n;
  options.target_avg_degree = 5.0;
  options.seed = seed;
  EdgeList edges = (directed ? GenerateDirectedGlp(options)
                             : GenerateGlp(options))
                       .ValueOrDie();
  if (weighted) {
    AssignUniformWeights(&edges, 1, max_weight, DeriveSeed(seed, 5));
  }
  return edges;
}

class MappedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override { tmp_ = TempDir::Create("mapped").ValueOrDie(); }

  /// Builds an index, saves HLI1 + HLI2, and returns (heap index, path
  /// of the HLI2 file).
  std::pair<HopDbIndex, std::string> BuildBoth(VertexId n, uint64_t seed,
                                               bool directed,
                                               bool weighted,
                                               const std::string& stem,
                                               Distance max_weight = 7) {
    HopDbIndex index =
        HopDbIndex::Build(TestGraph(n, seed, directed, weighted, max_weight))
            .ValueOrDie();
    const std::string hli2 = tmp_->path() + "/" + stem + ".hli2";
    EXPECT_TRUE(
        MappedIndex::Write(index.label_index(), index.ranking(), hli2).ok());
    return {std::move(index), hli2};
  }

  std::string ReadFile(const std::string& path) {
    std::string data;
    EXPECT_TRUE(ReadFileToString(path, &data).ok());
    return data;
  }

  void WriteFile(const std::string& path, const std::string& data) {
    ASSERT_TRUE(WriteStringToFile(path, data).ok());
  }

  Result<TempDir> tmp_ = Status::Internal("not set up");
};

/// Mirror of the canonical v4 section layout (derived offsets, 64-byte
/// aligned, in fixed order, both arenas ending in 16 tail lanes, the
/// dist section at the header's width) so corruption tests can aim at a
/// specific section. Kept in lockstep with docs/FORMATS.md.
struct Hli2Layout {
  uint64_t slots, total, width;
  uint64_t offsets_off, pivots_off, dists_off, rank_to_orig_off,
      orig_to_rank_off, file_size;
};

Hli2Layout ComputeHli2Layout(const std::string& data) {
  const uint8_t* hd = reinterpret_cast<const uint8_t*>(data.data());
  const uint64_t flags = DecodeU64(hd + 8);
  const uint64_t n = DecodeU32(hd + 16);
  auto align = [](uint64_t off) { return (off + 63) & ~uint64_t{63}; };
  Hli2Layout l;
  l.slots = (flags & 1) != 0 ? 2 * n : n;
  l.total = DecodeU64(hd + 24);
  l.width = DecodeU32(hd + 20);
  const uint64_t lanes = l.total + 16;
  l.offsets_off = align(128);
  l.pivots_off = align(l.offsets_off + (l.slots + 1) * 8);
  l.dists_off = align(l.pivots_off + lanes * 4);
  l.rank_to_orig_off = align(l.dists_off + lanes * l.width);
  l.orig_to_rank_off = align(l.rank_to_orig_off + n * 4);
  l.file_size = l.orig_to_rank_off + n * 4;
  return l;
}

/// `data` with its header checksum recomputed, so that only the gate a
/// test aims at can refuse it.
std::string ResealHeader(std::string data) {
  uint8_t* bytes = reinterpret_cast<uint8_t*>(data.data());
  EncodeU64(Fnv1a64(bytes, 64), bytes + 64);
  return data;
}

/// `data` with its metadata checksum (the offset table, then both
/// permutations) and header checksum recomputed.
std::string ResealMeta(std::string data) {
  uint8_t* bytes = reinterpret_cast<uint8_t*>(data.data());
  const Hli2Layout l = ComputeHli2Layout(data);
  uint64_t meta = Fnv1a64(bytes + l.offsets_off, l.pivots_off - l.offsets_off);
  meta ^= Fnv1a64(bytes + l.rank_to_orig_off, l.file_size - l.rank_to_orig_off);
  EncodeU64(meta, bytes + 48);
  return ResealHeader(std::move(data));
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

TEST_F(MappedIndexTest, RoundTripIsQueryIdenticalToHeapIndex) {
  for (const bool directed : {false, true}) {
    for (const bool weighted : {false, true}) {
      auto [index, hli2] =
          BuildBoth(180, 11, directed, weighted,
                    "rt" + std::to_string(directed) + std::to_string(weighted));
      MappedIndex mapped = MappedIndex::Open(hli2).ValueOrDie();
      EXPECT_EQ(mapped.num_vertices(), index.num_vertices());
      EXPECT_EQ(mapped.directed(), directed);
      EXPECT_EQ(mapped.TotalEntries(), index.label_index().TotalEntries());
      for (VertexId s = 0; s < index.num_vertices(); s += 7) {
        for (VertexId t = 0; t < index.num_vertices(); ++t) {
          ASSERT_EQ(mapped.Query(s, t), index.Query(s, t))
              << "directed=" << directed << " weighted=" << weighted
              << " s=" << s << " t=" << t;
        }
      }
    }
  }
}

// The file keeps the store's lane width: one-byte lanes when every
// distance is at most 127, 4-byte lanes otherwise, and the dist section
// is exactly that wide. Both widths answer every pair as the heap index
// does, and their arenas verify.
TEST_F(MappedIndexTest, RoundTripsAtBothWidths) {
  for (const Distance max_weight : {Distance{7}, Distance{1000}}) {
    for (const bool directed : {false, true}) {
      SCOPED_TRACE("max weight " + std::to_string(max_weight) +
                   (directed ? " directed" : " undirected"));
      auto [index, hli2] =
          BuildBoth(160, 41, directed, true,
                    "width" + std::to_string(max_weight) +
                        std::to_string(directed),
                    max_weight);
      const uint32_t width = max_weight == 7 ? 1 : 4;
      ASSERT_EQ(index.label_index().labels().dist_width, width);
      const std::string data = ReadFile(hli2);
      EXPECT_EQ(DecodeU32(reinterpret_cast<const uint8_t*>(data.data()) + 4),
                4u);
      const Hli2Layout l = ComputeHli2Layout(data);
      EXPECT_EQ(l.file_size, data.size());
      EXPECT_EQ(l.total, index.label_index().TotalEntries());
      EXPECT_EQ(l.rank_to_orig_off - l.dists_off,
                ((l.total + 16) * width + 63) / 64 * 64);
      // The offset table and both arenas are the store's, byte for byte.
      const LabelSetView store = index.label_index().labels();
      EXPECT_EQ(data.compare(l.offsets_off, (l.slots + 1) * 8,
                             reinterpret_cast<const char*>(store.offsets),
                             (l.slots + 1) * 8),
                0);
      EXPECT_EQ(data.compare(l.pivots_off, (l.total + 16) * 4,
                             reinterpret_cast<const char*>(store.pivots),
                             (l.total + 16) * 4),
                0);
      EXPECT_EQ(data.compare(l.dists_off, (l.total + 16) * width,
                             reinterpret_cast<const char*>(store.dists),
                             (l.total + 16) * width),
                0);
      MappedIndex::OpenOptions options;
      options.verify_arenas = true;
      MappedIndex mapped = MappedIndex::Open(hli2, options).ValueOrDie();
      EXPECT_EQ(mapped.dist_width(), width);
      EXPECT_EQ(mapped.labels().dist_width, width);
      for (VertexId s = 0; s < index.num_vertices(); s += 3) {
        for (VertexId t = 0; t < index.num_vertices(); ++t) {
          ASSERT_EQ(mapped.Query(s, t), index.Query(s, t))
              << "s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST_F(MappedIndexTest, VerifyArenasPassesOnIntactFile) {
  auto [index, hli2] = BuildBoth(120, 3, false, false, "intact");
  MappedIndex::OpenOptions options;
  options.verify_arenas = true;
  auto mapped = MappedIndex::Open(hli2, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped->VerifyArenas().ok());
}

TEST_F(MappedIndexTest, EnginesAgreeBetweenHeapAndMapped) {
  auto [index, hli2] = BuildBoth(250, 23, true, false, "engines");
  MappedIndex mapped = MappedIndex::Open(hli2).ValueOrDie();
  const TwoHopIndex& labels = index.label_index();

  // One-to-many over INTERNAL ids: the mapped view must reproduce the
  // heap engine bucket for bucket.
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < labels.num_vertices(); t += 3) {
    targets.push_back(t);
  }
  OneToManyEngine heap_engine(labels.labels(), targets);
  OneToManyEngine mapped_engine(mapped.labels(), targets);
  for (VertexId s = 0; s < labels.num_vertices(); s += 17) {
    ASSERT_EQ(heap_engine.Query(s), mapped_engine.Query(s)) << "s=" << s;
  }

  // KNN likewise, both directions.
  for (const auto direction : {KnnEngine::Direction::kForward,
                               KnnEngine::Direction::kBackward}) {
    KnnEngine heap_knn(labels.labels(), direction);
    KnnEngine mapped_knn(mapped.labels(), direction);
    for (VertexId s = 0; s < labels.num_vertices(); s += 29) {
      ASSERT_EQ(heap_knn.Query(s, 12), mapped_knn.Query(s, 12)) << "s=" << s;
    }
  }
}

TEST_F(MappedIndexTest, TruncatedFilesFailCleanly) {
  auto [index, hli2] = BuildBoth(150, 7, false, false, "trunc");
  const std::string data = ReadFile(hli2);
  // Every truncation point must produce a clean error — never a crash
  // or an OOB read. Sweep a few structurally interesting prefixes.
  const size_t cuts[] = {0, 3, 64, 127, 128, data.size() / 2,
                         data.size() - 1};
  for (const size_t cut : cuts) {
    const std::string path = tmp_->path() + "/cut" + std::to_string(cut);
    WriteFile(path, data.substr(0, cut));
    auto mapped = MappedIndex::Open(path);
    EXPECT_FALSE(mapped.ok()) << "cut=" << cut;
  }
}

TEST_F(MappedIndexTest, HeaderCorruptionFailsChecksum) {
  auto [index, hli2] = BuildBoth(150, 7, false, false, "hdrcorrupt");
  std::string data = ReadFile(hli2);
  data[17] = static_cast<char>(data[17] ^ 0x40);  // inside num_vertices
  const std::string path = tmp_->path() + "/hdrbad.hli2";
  WriteFile(path, data);
  auto mapped = MappedIndex::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("checksum"), std::string::npos)
      << mapped.status();
}

TEST_F(MappedIndexTest, OffsetTableCorruptionFailsMetadataChecksum) {
  auto [index, hli2] = BuildBoth(150, 7, false, false, "offcorrupt");
  std::string data = ReadFile(hli2);
  data[192] = static_cast<char>(data[192] ^ 0x01);  // inside the offsets
  const std::string path = tmp_->path() + "/offbad.hli2";
  WriteFile(path, data);
  auto mapped = MappedIndex::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("checksum"), std::string::npos)
      << mapped.status();
}

TEST_F(MappedIndexTest, ArenaCorruptionIsBoundsSafeAndDetectable) {
  auto [index, hli2] = BuildBoth(200, 9, false, false, "arenacorrupt");
  std::string data = ReadFile(hli2);
  // Flip a byte in the middle of the label arenas (past the offset
  // table, before the permutations — the region NOT hashed at open).
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x10);
  const std::string path = tmp_->path() + "/arenabad.hli2";
  WriteFile(path, data);

  // Plain open succeeds by design (O(1) load skips the arena hash)...
  auto mapped = MappedIndex::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  // ...queries stay memory-safe (possibly wrong, never OOB — this runs
  // under ASan in CI)...
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    const VertexId s = static_cast<VertexId>(rng.Below(200));
    const VertexId t = static_cast<VertexId>(rng.Below(200));
    (void)mapped->Query(s, t);
  }
  // ...and both explicit verification paths report the corruption.
  const Status verify = mapped->VerifyArenas();
  ASSERT_FALSE(verify.ok());
  EXPECT_NE(verify.message().find("checksum"), std::string::npos) << verify;
  MappedIndex::OpenOptions options;
  options.verify_arenas = true;
  EXPECT_FALSE(MappedIndex::Open(path, options).ok());
}

TEST_F(MappedIndexTest, OutOfRangePivotsInArenaCannotCrashEngines) {
  auto [index, hli2] = BuildBoth(200, 9, false, false, "hugepivot");
  std::string data = ReadFile(hli2);
  // Overwrite the first few pivot entries with 0xffffffff — far past
  // num_vertices. The arenas are unhashed at open, and the batch/KNN
  // engines index arrays by pivot, so these must be skipped, not
  // followed (ASan enforces the "never OOB" half of the contract).
  const uint64_t pivots_off = ComputeHli2Layout(data).pivots_off;
  for (size_t i = 0; i < 16; ++i) {
    data[pivots_off + i] = static_cast<char>(0xff);
  }
  const std::string path = tmp_->path() + "/hugepivot_bad.hli2";
  WriteFile(path, data);

  auto mapped = MappedIndex::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < 200; t += 2) targets.push_back(t);
  OneToManyEngine batch_engine(mapped->labels(), targets);
  KnnEngine knn_engine(mapped->labels(), KnnEngine::Direction::kForward);
  for (VertexId s = 0; s < 200; s += 11) {
    (void)batch_engine.Query(s);
    (void)knn_engine.Query(s, 10);
    (void)mapped->Query(s, (s * 7 + 3) % 200);
  }
  // The corruption is still detectable the documented way.
  EXPECT_FALSE(mapped->VerifyArenas().ok());
}

TEST_F(MappedIndexTest, RetiredVersionsAreRejectedNamingConvert) {
  // Only version 4 is readable. A version-1 (packed, 4-byte lanes),
  // version-2 (blocked, 4-byte lanes) or version-3 (blocked arenas)
  // header — here a v4 file relabelled with a re-sealed header checksum,
  // so only the version gate can reject it — must fail cleanly and point
  // at the tool that re-creates the file.
  auto [index, hli2] = BuildBoth(150, 7, false, false, "oldheader");
  const std::string data = ReadFile(hli2);
  const std::string path = tmp_->path() + "/oldheader_bad.hli2";
  for (const uint32_t version : {1u, 2u, 3u}) {
    std::string old = data;
    EncodeU32(version, reinterpret_cast<uint8_t*>(old.data()) + 4);
    WriteFile(path, ResealHeader(old));
    auto mapped = MappedIndex::Open(path);
    ASSERT_FALSE(mapped.ok()) << version;
    EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(mapped.status().message().find("hopdb_cli convert"),
              std::string::npos)
        << mapped.status();
    EXPECT_NE(mapped.status().message().find(
                  "HLI2 version " + std::to_string(version)),
              std::string::npos)
        << mapped.status();
  }

  // A version from a newer build, or version 0, is rejected as
  // unsupported.
  for (const uint32_t version : {0u, 5u}) {
    std::string other = data;
    EncodeU32(version, reinterpret_cast<uint8_t*>(other.data()) + 4);
    WriteFile(path, ResealHeader(other));
    auto refused = MappedIndex::Open(path);
    ASSERT_FALSE(refused.ok()) << version;
    EXPECT_NE(refused.status().message().find("unsupported HLI2 version " +
                                              std::to_string(version)),
              std::string::npos)
        << refused.status();
  }
}

// The width word names 1 or 4 bytes a lane; any other value is refused
// before it can size a section.
TEST_F(MappedIndexTest, WidthWordsOtherThanOneOrFourAreRejected) {
  auto [index, hli2] = BuildBoth(150, 7, false, false, "widthword");
  const std::string data = ReadFile(hli2);
  const std::string path = tmp_->path() + "/widthword_bad.hli2";
  for (const uint32_t width : {0u, 2u, 3u, 5u}) {
    std::string crafted = data;
    EncodeU32(width, reinterpret_cast<uint8_t*>(crafted.data()) + 20);
    WriteFile(path, ResealHeader(crafted));
    auto mapped = MappedIndex::Open(path);
    ASSERT_FALSE(mapped.ok()) << width;
    EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(mapped.status().message().find(
                  "distance lane width " + std::to_string(width)),
              std::string::npos)
        << mapped.status();
  }
}

TEST_F(MappedIndexTest, CraftedHugeTotalEntriesIsRejected) {
  auto [index, hli2] = BuildBoth(150, 7, false, false, "hugetotal");
  std::string data = ReadFile(hli2);
  uint8_t* bytes = reinterpret_cast<uint8_t*>(data.data());
  // total_entries * 4 wraps to a tiny number for 2^62 + 1: a naive
  // bounds check would pass and queries would read far outside the
  // mapping. Re-seal the header checksum so only the overflow guard
  // can reject the file.
  EncodeU64((1ull << 62) + 1, bytes + 24);
  EncodeU64(Fnv1a64(bytes, 64), bytes + 64);
  const std::string path = tmp_->path() + "/hugetotal_bad.hli2";
  WriteFile(path, data);
  auto mapped = MappedIndex::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("total_entries"),
            std::string::npos)
      << mapped.status();
}

// Open validates the offset table queries index by: it starts at 0,
// never goes down, ends at total_entries, and no slot holds 2^32 entries
// or more. Each crafted table carries a re-sealed metadata checksum, so
// only its own gate can refuse it.
TEST_F(MappedIndexTest, CraftedOffsetTablesAreRejected) {
  auto [index, hli2] = BuildBoth(150, 7, true, false, "offsets");
  const std::string data = ReadFile(hli2);
  const Hli2Layout l = ComputeHli2Layout(data);
  ASSERT_GT(l.total, 0u);
  const auto offset = [&](uint64_t slot) {
    return DecodeU64(reinterpret_cast<const uint8_t*>(data.data()) +
                     l.offsets_off + 8 * slot);
  };
  // A slot past the first whose label is not empty, so that moving its
  // start or end keeps the table's ends.
  uint64_t mid = l.slots / 2;
  while (offset(mid + 1) == offset(mid)) ++mid;
  ASSERT_LT(mid, l.slots);
  ASSERT_GT(offset(mid), 0u);
  struct Case {
    const char* what;
    uint64_t slot;
    uint64_t value;
    const char* message;
  };
  const Case cases[] = {
      {"not monotone", mid + 1, offset(mid) - 1, "not monotone"},
      {"a first offset past 0", 0, 1, "from 0 to total_entries"},
      {"a last offset short of total_entries", l.slots, l.total - 1,
       "from 0 to total_entries"},
      {"a last offset past total_entries", l.slots, l.total + 1,
       "from 0 to total_entries"},
      {"a slot of 2^32 entries", mid + 1, offset(mid) + (uint64_t{1} << 32),
       "2^32 entries or more"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    std::string crafted = data;
    EncodeU64(c.value, reinterpret_cast<uint8_t*>(crafted.data()) +
                           l.offsets_off + 8 * c.slot);
    const std::string path = tmp_->path() + "/offsets_bad.hli2";
    WriteFile(path, ResealMeta(crafted));
    auto mapped = MappedIndex::Open(path);
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(mapped.status().message().find(c.message), std::string::npos)
        << mapped.status();
  }

  // A file cut before either arena's tail lanes is refused: as it is, by
  // its header's file size; with that size patched to the cut, by the
  // canonical layout.
  for (const uint64_t cut : {l.pivots_off + 4 * l.total,
                             l.dists_off + l.width * l.total}) {
    std::string crafted = data.substr(0, cut);
    const std::string path = tmp_->path() + "/tailcut.hli2";
    WriteFile(path, crafted);
    EXPECT_FALSE(MappedIndex::Open(path).ok()) << cut;
    EncodeU64(cut, reinterpret_cast<uint8_t*>(crafted.data()) + 40);
    WriteFile(path, ResealHeader(crafted));
    auto mapped = MappedIndex::Open(path);
    ASSERT_FALSE(mapped.ok()) << cut;
    EXPECT_NE(mapped.status().message().find("canonical layout"),
              std::string::npos)
        << mapped.status();
  }
}

// The kernels' block loads read up to 16 lanes past a label's end, into
// the next slot or the tail, and mask them. Rewriting the tail lanes
// (small pivots, distance 1) must change no answer on either kernel,
// and VerifyArenas reports the rewrite.
TEST_F(MappedIndexTest, TailLanesNeverChangeAnAnswer) {
  for (const Distance max_weight : {Distance{7}, Distance{1000}}) {
    SCOPED_TRACE("max weight " + std::to_string(max_weight));
    auto [index, hli2] = BuildBoth(120, 37, true, true,
                                   "tail" + std::to_string(max_weight),
                                   max_weight);
    std::string data = ReadFile(hli2);
    const Hli2Layout l = ComputeHli2Layout(data);
    uint8_t* bytes = reinterpret_cast<uint8_t*>(data.data());
    for (uint64_t i = 0; i < 16; ++i) {
      EncodeU32(static_cast<uint32_t>(i),
                bytes + l.pivots_off + 4 * (l.total + i));
      uint8_t* dist = bytes + l.dists_off + l.width * (l.total + i);
      if (l.width == 1) {
        *dist = 1;
      } else {
        EncodeU32(1, dist);
      }
    }
    const std::string path = tmp_->path() + "/tail_bad.hli2";
    WriteFile(path, data);
    auto mapped = MappedIndex::Open(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    EXPECT_FALSE(mapped->VerifyArenas().ok());
    const std::string before = ActiveQueryKernel().name;
    for (const QueryKernel* kernel : SupportedQueryKernels()) {
      ASSERT_TRUE(SetActiveQueryKernel(kernel->name));
      for (VertexId s = 0; s < index.num_vertices(); ++s) {
        for (VertexId t = 0; t < index.num_vertices(); ++t) {
          ASSERT_EQ(mapped->Query(s, t), index.Query(s, t))
              << kernel->name << " s=" << s << " t=" << t;
        }
      }
    }
    ASSERT_TRUE(SetActiveQueryKernel(before));
  }
}

TEST_F(MappedIndexTest, RejectsForeignAndGarbageFiles) {
  auto [index, hli2] = BuildBoth(120, 5, false, false, "foreign");
  // An HLI1 file is not mappable.
  const std::string hli1 = tmp_->path() + "/plain.hopdb";
  ASSERT_TRUE(index.Save(hli1).ok());
  EXPECT_FALSE(MappedIndex::Open(hli1).ok());
  // Nor is garbage, an empty file, or a directory.
  const std::string garbage = tmp_->path() + "/garbage";
  WriteFile(garbage, std::string(4096, 'x'));
  EXPECT_FALSE(MappedIndex::Open(garbage).ok());
  const std::string empty = tmp_->path() + "/empty";
  WriteFile(empty, "");
  EXPECT_FALSE(MappedIndex::Open(empty).ok());
  EXPECT_FALSE(MappedIndex::Open(tmp_->path() + "/missing.hli2").ok());
}

TEST_F(MappedIndexTest, OpensReadOnlyFiles) {
  auto [index, hli2] = BuildBoth(140, 13, false, false, "readonly");
  ASSERT_EQ(chmod(hli2.c_str(), 0444), 0);
  auto mapped = MappedIndex::Open(hli2);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  for (VertexId t = 0; t < 140; ++t) {
    ASSERT_EQ(mapped->Query(0, t), index.Query(0, t)) << "t=" << t;
  }
  // Restore write permission so TempDir cleanup can remove the file.
  chmod(hli2.c_str(), 0644);
}

TEST_F(MappedIndexTest, LoadServingSnapshotDispatchesOnMagic) {
  auto [index, hli2] = BuildBoth(160, 19, false, false, "snapdispatch");
  const std::string hli1 = tmp_->path() + "/snapdispatch.hopdb";
  ASSERT_TRUE(index.Save(hli1).ok());

  auto heap_snap = LoadServingSnapshot(hli1, 64);
  ASSERT_TRUE(heap_snap.ok()) << heap_snap.status();
  EXPECT_FALSE((*heap_snap)->mapped());
  EXPECT_STREQ((*heap_snap)->map_mode(), "heap");

  auto mmap_snap = LoadServingSnapshot(hli2, 64);
  ASSERT_TRUE(mmap_snap.ok()) << mmap_snap.status();
  EXPECT_TRUE((*mmap_snap)->mapped());
  EXPECT_STREQ((*mmap_snap)->map_mode(), "mmap");
  EXPECT_GT((*mmap_snap)->ResidentBytes(), 0u);

  // Snapshot-level query dispatch agrees across backings (original ids).
  for (VertexId t = 0; t < 160; t += 3) {
    ASSERT_EQ((*heap_snap)->Query(1, t), (*mmap_snap)->Query(1, t));
    ASSERT_EQ((*heap_snap)->QueryKnn(t, 5), (*mmap_snap)->QueryKnn(t, 5));
  }
  const std::vector<VertexId> targets = {0, 5, 9, 33, 150, 5};
  for (VertexId s = 0; s < 160; s += 31) {
    ASSERT_EQ((*heap_snap)->QueryOneToMany(s, targets),
              (*mmap_snap)->QueryOneToMany(s, targets));
  }
}

// Out-of-range ids answer "unreachable" on every backing and hot-hub
// setting — one range check in front of one query path.
TEST_F(MappedIndexTest, SnapshotOutOfRangeIdsAreUnreachable) {
  auto [index, hli2] = BuildBoth(150, 29, false, false, "snaprange");
  const VertexId n = index.num_vertices();
  for (const bool mmap : {false, true}) {
    for (const uint32_t hot_hub_k : {0u, 64u}) {
      SCOPED_TRACE(std::string(mmap ? "mmap" : "heap") + " hot_hub_k " +
                   std::to_string(hot_hub_k));
      const auto snap =
          mmap ? std::make_shared<const ServingSnapshot>(
                     MappedIndex::Open(hli2).ValueOrDie(), hli2, 0, hot_hub_k)
               : std::make_shared<const ServingSnapshot>(HopDbIndex(index),
                                                         "", 0, hot_hub_k);
      for (const VertexId bad : {n, n + 1, kInvalidVertex}) {
        EXPECT_EQ(snap->Query(bad, 0), kInfDistance);
        EXPECT_EQ(snap->Query(0, bad), kInfDistance);
        EXPECT_EQ(snap->Query(bad, bad), kInfDistance);
        EXPECT_FALSE(snap->QueryReach(bad, 0, kInfDistance - 1));
        EXPECT_EQ(snap->QueryOneToMany(bad, {0, 1}),
                  (std::vector<Distance>{kInfDistance, kInfDistance}));
        EXPECT_EQ(snap->QueryOneToMany(0, {bad, 1}),
                  (std::vector<Distance>{kInfDistance, index.Query(0, 1)}));
        EXPECT_TRUE(snap->QueryKnn(bad, 5).empty());
        EXPECT_TRUE(snap->QueryWithin(bad, 3).empty());
      }
      EXPECT_EQ(snap->Query(n - 1, 0), index.Query(n - 1, 0));
    }
  }
}

TEST_F(MappedIndexTest, BarabasiAlbertDirectedRoundTrip) {
  BaOptions ba;
  ba.num_vertices = 220;
  ba.edges_per_vertex = 3;
  ba.seed = 77;
  EdgeList undirected = GenerateBarabasiAlbert(ba).ValueOrDie();
  EdgeList edges(undirected.num_vertices(), true);
  for (const Edge& e : undirected.edges()) edges.Add(e.src, e.dst);
  edges.Normalize();
  HopDbIndex index = HopDbIndex::Build(edges).ValueOrDie();
  const std::string hli2 = tmp_->path() + "/ba.hli2";
  ASSERT_TRUE(
      MappedIndex::Write(index.label_index(), index.ranking(), hli2).ok());
  MappedIndex mapped = MappedIndex::Open(hli2).ValueOrDie();
  Rng rng(123);
  for (int i = 0; i < 4000; ++i) {
    const VertexId s = static_cast<VertexId>(rng.Below(220));
    const VertexId t = static_cast<VertexId>(rng.Below(220));
    ASSERT_EQ(mapped.Query(s, t), index.Query(s, t));
  }
}

// Rewriting every one-byte distance lane (0x80 reads as -128, 0x7F as
// 127, 0xFF as infinity) can mis-answer but never read out of the
// mapping, and VerifyArenas reports it.
TEST_F(MappedIndexTest, NarrowDistCorruptionIsBoundsSafeAndDetectable) {
  auto [index, hli2] = BuildBoth(200, 9, true, false, "narrowdist");
  std::string data = ReadFile(hli2);
  const Hli2Layout l = ComputeHli2Layout(data);
  ASSERT_EQ(DecodeU32(reinterpret_cast<const uint8_t*>(data.data()) + 20),
            1u);
  const char garbage[] = {'\x80', '\x7f', '\xff', '\x00', '\x81'};
  for (uint64_t off = l.dists_off; off < l.rank_to_orig_off; ++off) {
    data[off] = garbage[off % sizeof(garbage)];
  }
  const std::string path = tmp_->path() + "/narrowdist_bad.hli2";
  WriteFile(path, data);
  auto mapped = MappedIndex::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < 200; t += 3) targets.push_back(t);
  OneToManyEngine batch_engine(mapped->labels(), targets);
  KnnEngine knn_engine(mapped->labels(), KnnEngine::Direction::kForward);
  for (VertexId s = 0; s < 200; ++s) {
    for (VertexId t = 0; t < 200; t += 7) (void)mapped->Query(s, t);
    (void)batch_engine.Query(s);
    (void)knn_engine.Query(s, 10);
  }
  EXPECT_FALSE(mapped->VerifyArenas().ok());
  MappedIndex::OpenOptions options;
  options.verify_arenas = true;
  EXPECT_FALSE(MappedIndex::Open(path, options).ok());
}

// Writes `index` as HLI2 over `path` with the process's file size limit
// at `limit` bytes and SIGXFSZ ignored, so that the write past the limit
// fails with EFBIG as a full disk would fail it; exits 0 iff Write
// returned IOError.
[[noreturn]] void WriteWithFileSizeLimit(const HopDbIndex& index,
                                         const std::string& path,
                                         rlim_t limit) {
  std::signal(SIGXFSZ, SIG_IGN);
  const rlimit cap{limit, limit};
  if (setrlimit(RLIMIT_FSIZE, &cap) != 0) std::_Exit(2);
  const Status written =
      MappedIndex::Write(index.label_index(), index.ranking(), path);
  std::_Exit(written.code() == StatusCode::kIOError ? 0 : 1);
}

// Write streams into a temporary file beside its target and renames it
// over the target only once the file is whole and synced. A write that
// fails part way (before its first window is flushed, after it, or on
// the last byte) leaves the old file mappable with its old answers and
// no temporary file behind, and a reader that mapped the old file
// before a write keeps reading the old bytes.
TEST_F(MappedIndexTest, WriteReplacesTheFileAtomically) {
  auto dir = TempDir::Create("hli2_atomic");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->File("idx.hli2");
  auto [old_index, old_hli2] = BuildBoth(60, 3, false, false, "atomic_old");
  ASSERT_TRUE(MappedIndex::Write(old_index.label_index(),
                                 old_index.ranking(), path)
                  .ok());
  // A new index whose file spans more than two write windows.
  const HopDbIndex new_index =
      HopDbIndex::Build(TestGraph(12000, 13, true, true, 1000)).ValueOrDie();
  const std::string want = tmp_->path() + "/atomic_new.hli2";
  ASSERT_TRUE(
      MappedIndex::Write(new_index.label_index(), new_index.ranking(), want)
          .ok());
  const std::string new_bytes = ReadFile(want);
  ASSERT_GT(new_bytes.size(), 2u << 20);

  for (const rlim_t limit : {rlim_t{0}, rlim_t{new_bytes.size() / 2},
                             rlim_t{new_bytes.size() - 1}}) {
    SCOPED_TRACE("file size limit " + std::to_string(limit));
    EXPECT_EXIT(WriteWithFileSizeLimit(new_index, path, limit),
                ::testing::ExitedWithCode(0), "");
    EXPECT_EQ(FileNames(dir->path()), std::vector<std::string>{"idx.hli2"});
    auto back = MappedIndex::Open(path);
    ASSERT_TRUE(back.ok()) << back.status();
    for (VertexId s = 0; s < old_index.num_vertices(); ++s) {
      for (VertexId t = 0; t < old_index.num_vertices(); ++t) {
        ASSERT_EQ(back->Query(s, t), old_index.Query(s, t));
      }
    }
  }

  auto held = MappedIndex::Open(path);
  ASSERT_TRUE(held.ok()) << held.status();
  ASSERT_TRUE(
      MappedIndex::Write(new_index.label_index(), new_index.ranking(), path)
          .ok());
  EXPECT_TRUE(ReadFile(path) == new_bytes) << "the written file differs";
  for (VertexId t = 0; t < old_index.num_vertices(); ++t) {
    EXPECT_EQ(held->Query(0, t), old_index.Query(0, t))
        << "a mapped reader saw the new file";
  }
  EXPECT_EQ(FileNames(dir->path()), std::vector<std::string>{"idx.hli2"});
}

}  // namespace
}  // namespace hopdb
