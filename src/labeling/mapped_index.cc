#include "labeling/mapped_index.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "io/replacing_writer.h"
#include "labeling/query_kernel.h"
#include "util/serde.h"

namespace hopdb {

namespace {

constexpr char kMagic[4] = {'H', 'L', 'I', '2'};
/// The one version written and read: packed arenas, each ending in
/// kLabelBlockEntries all-ones tail lanes, distance lanes at the width
/// the header's word at offset 20 names (1 or 4 bytes).
constexpr uint32_t kHli2Version = 4;
constexpr uint64_t kFlagDirected = 1ull << 0;
constexpr size_t kHeaderBytes = 128;
constexpr size_t kHeaderChecksumOff = 64;
constexpr size_t kSectionAlign = 64;

uint64_t AlignUp(uint64_t off) {
  return (off + kSectionAlign - 1) & ~static_cast<uint64_t>(kSectionAlign - 1);
}

struct Header {
  uint64_t flags = 0;
  uint32_t num_vertices = 0;
  uint32_t dist_width = 0;
  uint64_t total_entries = 0;
  uint64_t file_size = 0;
  uint64_t meta_checksum = 0;
  uint64_t arena_checksum = 0;
};

/// Byte offsets of the canonical section order, derived entirely from
/// the slot count, vertex count, entry count and lane width. The writer
/// emits exactly this layout and Open() recomputes it and requires
/// exact agreement — subsuming ordering, overlap, alignment, and bounds
/// checks in one shot.
struct Layout {
  uint64_t offsets_off = 0;
  uint64_t pivots_off = 0;
  uint64_t dists_off = 0;
  uint64_t rank_to_orig_off = 0;
  uint64_t orig_to_rank_off = 0;
  uint64_t file_size = 0;
};

Layout ComputeLayout(uint64_t num_slots, uint64_t n, uint64_t total,
                     uint32_t dist_width) {
  const uint64_t lanes = total + kLabelBlockEntries;
  Layout l;
  l.offsets_off = AlignUp(kHeaderBytes);
  l.pivots_off = AlignUp(l.offsets_off + (num_slots + 1) * sizeof(uint64_t));
  l.dists_off = AlignUp(l.pivots_off + lanes * sizeof(uint32_t));
  l.rank_to_orig_off = AlignUp(l.dists_off + lanes * dist_width);
  l.orig_to_rank_off = AlignUp(l.rank_to_orig_off + n * sizeof(uint32_t));
  l.file_size = l.orig_to_rank_off + n * sizeof(uint32_t);
  return l;
}

Status ParseHeader(const uint8_t* data, size_t size, const std::string& path,
                   Header* h) {
  if (size < kHeaderBytes) {
    return Status::InvalidArgument("truncated HLI2 header: " + path);
  }
  if (std::memcmp(data, kMagic, 4) != 0) {
    return Status::InvalidArgument("not an HLI2 index file: " + path);
  }
  const uint32_t version = DecodeU32(data + 4);
  if (version >= 1 && version < kHli2Version) {
    return Status::InvalidArgument(
        "HLI2 version " + std::to_string(version) +
        " (an earlier layout) is no longer readable; re-create the file "
        "from its HLI1 index with `hopdb_cli convert`: " + path);
  }
  if (version != kHli2Version) {
    return Status::InvalidArgument(
        "unsupported HLI2 version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kHli2Version) +
        "): " + path);
  }
  h->flags = DecodeU64(data + 8);
  h->num_vertices = DecodeU32(data + 16);
  h->dist_width = DecodeU32(data + 20);
  h->total_entries = DecodeU64(data + 24);
  h->file_size = DecodeU64(data + 40);
  h->meta_checksum = DecodeU64(data + 48);
  h->arena_checksum = DecodeU64(data + 56);
  if (Fnv1a64(data, kHeaderChecksumOff) !=
      DecodeU64(data + kHeaderChecksumOff)) {
    return Status::InvalidArgument("HLI2 header checksum mismatch: " + path);
  }
  if (h->dist_width != 1 && h->dist_width != 4) {
    return Status::InvalidArgument(
        "HLI2 distance lane width " + std::to_string(h->dist_width) +
        " (only 1 or 4 is valid): " + path);
  }
  return Status::OK();
}

}  // namespace

Status MappedIndex::Write(const TwoHopIndex& labels,
                          const RankMapping& mapping,
                          const std::string& path) {
  const VertexId n = labels.num_vertices();
  if (mapping.size() != n) {
    return Status::InvalidArgument(
        "rank mapping covers " + std::to_string(mapping.size()) +
        " vertices but the index has " + std::to_string(n));
  }
  // Serialize the frozen store: the writer reads what queries read.
  const LabelSetView view = labels.labels();
  const size_t num_slots = view.num_slots();
  const uint64_t total = view.offsets[num_slots];
  const Layout l = ComputeLayout(num_slots, n, total, view.dist_width);

  // The sections stream through the writer's window at the offsets the
  // layout gives them, each preceded by the zero padding that reaches its
  // 64-byte boundary. The writer hashes as it flushes, so the metadata
  // checksum (the offset table, then the permutation sections) and the
  // arena checksum (both arenas with their tails) come from the one
  // write pass, and the header they seal is patched in over a zero
  // placeholder before the file is synced.
  static constexpr uint8_t kZeros[kSectionAlign] = {};
  uint8_t hd[kHeaderBytes] = {};
  ReplacingWriter out;
  HOPDB_RETURN_NOT_OK(out.Open(path));
  uint64_t at = 0;  // bytes put so far
  // Zero padding up to `off`, less than one section alignment away.
  const auto pad_to = [&](uint64_t off) {
    out.Put(kZeros, off - at);
    at = off;
  };
  const auto put_at = [&](uint64_t off, const void* data, uint64_t bytes) {
    pad_to(off);
    out.Put(data, bytes);
    at += bytes;
  };
  put_at(0, hd, sizeof(hd));
  (void)out.TakeHash();
  put_at(l.offsets_off, view.offsets, (num_slots + 1) * sizeof(uint64_t));
  pad_to(l.pivots_off);
  const uint64_t tables_hash = out.TakeHash();
  // Both arenas with their tail lanes.
  const uint64_t lanes = total + kLabelBlockEntries;
  put_at(l.pivots_off, view.pivots, lanes * sizeof(uint32_t));
  put_at(l.dists_off, view.dists, lanes * view.dist_width);
  pad_to(l.rank_to_orig_off);
  const uint64_t arena_hash = out.TakeHash();
  put_at(l.rank_to_orig_off, mapping.rank_to_orig.data(),
         n * sizeof(uint32_t));
  put_at(l.orig_to_rank_off, mapping.orig_to_rank.data(),
         n * sizeof(uint32_t));
  const uint64_t ranks_hash = out.TakeHash();

  std::memcpy(hd, kMagic, 4);
  EncodeU32(kHli2Version, hd + 4);
  EncodeU64(labels.directed() ? kFlagDirected : 0, hd + 8);
  EncodeU32(n, hd + 16);
  EncodeU32(view.dist_width, hd + 20);
  EncodeU64(total, hd + 24);
  EncodeU64(l.file_size, hd + 40);
  EncodeU64(tables_hash ^ ranks_hash, hd + 48);
  EncodeU64(arena_hash, hd + 56);
  EncodeU64(Fnv1a64(hd, kHeaderChecksumOff), hd + kHeaderChecksumOff);
  out.Patch(0, hd, sizeof(hd));
  return out.Commit();
}

Result<MappedIndex> MappedIndex::Open(const std::string& path,
                                      const OpenOptions& options) {
  HOPDB_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  Header h;
  HOPDB_RETURN_NOT_OK(ParseHeader(file.data(), file.size(), path, &h));
  if (h.file_size != file.size()) {
    return Status::InvalidArgument(
        "HLI2 file size mismatch (header says " + std::to_string(h.file_size) +
        " bytes, file has " + std::to_string(file.size()) + "): " + path);
  }

  const bool directed = (h.flags & kFlagDirected) != 0;
  const uint64_t n = h.num_vertices;
  const uint64_t num_slots = directed ? 2 * n : n;
  // Reject the entry count before any size arithmetic: a crafted header
  // with a count near 2^62 would wrap count * 4 to a tiny number and
  // sail through the layout check below. (file_size already equals the
  // real mapped size, so this also bounds every product computed next.)
  if (h.total_entries > h.file_size / sizeof(uint32_t)) {
    return Status::InvalidArgument(
        "HLI2 total_entries exceeds what the file can hold: " + path);
  }

  const Layout l = ComputeLayout(num_slots, n, h.total_entries, h.dist_width);
  if (l.file_size != h.file_size) {
    return Status::InvalidArgument(
        "HLI2 file size disagrees with the canonical layout for "
        "num_vertices/total_entries (truncated or crafted?): " + path);
  }

  const uint8_t* base = file.data();
  uint64_t meta = Fnv1a64(base + l.offsets_off, l.pivots_off - l.offsets_off);
  meta ^= Fnv1a64(base + l.rank_to_orig_off, h.file_size - l.rank_to_orig_off);
  if (meta != h.meta_checksum) {
    return Status::InvalidArgument("HLI2 metadata checksum mismatch: " + path);
  }

  // Structural validation of everything queries index by: offsets from
  // 0 to total_entries, monotone, no slot of 2^32 entries or more (a
  // view's size is 32 bits), permutations inverse bijections. O(|V|) —
  // this is the whole non-constant cost of an open.
  const uint64_t* offsets =
      reinterpret_cast<const uint64_t*>(base + l.offsets_off);
  if (offsets[0] != 0 || offsets[num_slots] != h.total_entries) {
    return Status::InvalidArgument(
        "HLI2 offset table does not run from 0 to total_entries: " + path);
  }
  for (uint64_t s = 0; s < num_slots; ++s) {
    if (offsets[s + 1] < offsets[s]) {
      return Status::InvalidArgument("HLI2 offset table is not monotone: " +
                                     path);
    }
    if (offsets[s + 1] - offsets[s] > UINT32_MAX) {
      return Status::InvalidArgument("HLI2 slot " + std::to_string(s) +
                                     " holds 2^32 entries or more: " + path);
    }
  }
  const uint32_t* rank_to_orig =
      reinterpret_cast<const uint32_t*>(base + l.rank_to_orig_off);
  const uint32_t* orig_to_rank =
      reinterpret_cast<const uint32_t*>(base + l.orig_to_rank_off);
  for (uint64_t r = 0; r < n; ++r) {
    const uint32_t orig = rank_to_orig[r];
    if (orig >= n || orig_to_rank[orig] != r) {
      return Status::InvalidArgument(
          "HLI2 rank permutations are not inverse bijections: " + path);
    }
  }

  MappedIndex index;
  index.file_ = std::move(file);
  index.directed_ = directed;
  index.num_vertices_ = h.num_vertices;
  index.dist_width_ = h.dist_width;
  index.total_entries_ = h.total_entries;
  index.arena_checksum_ = h.arena_checksum;
  const uint8_t* data = index.file_.data();
  index.offsets_ = reinterpret_cast<const uint64_t*>(data + l.offsets_off);
  index.pivots_ = reinterpret_cast<const uint32_t*>(data + l.pivots_off);
  index.dists_ = data + l.dists_off;
  index.rank_to_orig_ =
      reinterpret_cast<const uint32_t*>(data + l.rank_to_orig_off);
  index.orig_to_rank_ =
      reinterpret_cast<const uint32_t*>(data + l.orig_to_rank_off);

  if (options.verify_arenas) {
    HOPDB_RETURN_NOT_OK(index.VerifyArenas());
  }
  return index;
}

Distance MappedIndex::Query(VertexId src, VertexId dst) const {
  if (src >= num_vertices_ || dst >= num_vertices_) return kInfDistance;
  const VertexId s = orig_to_rank_[src];
  const VertexId t = orig_to_rank_[dst];
  const LabelSetView view = labels();
  return QueryFlatHalves(view.Out(s), view.In(t), s, t, ActiveQueryKernel());
}

Status MappedIndex::VerifyArenas() const {
  if (!mapped()) {
    return Status::FailedPrecondition("VerifyArenas on an unmapped index");
  }
  // Hash exactly what Write hashed: the contiguous byte range from the
  // pivot section start to the rank_to_orig section start (both arenas
  // with their tails, and the inter-section padding).
  const uint8_t* begin = reinterpret_cast<const uint8_t*>(pivots_);
  const uint8_t* end = reinterpret_cast<const uint8_t*>(rank_to_orig_);
  if (Fnv1a64(begin, static_cast<size_t>(end - begin)) != arena_checksum_) {
    return Status::InvalidArgument("HLI2 label arena checksum mismatch: " +
                                   path());
  }
  return Status::OK();
}

}  // namespace hopdb
