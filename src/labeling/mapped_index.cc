#include "labeling/mapped_index.h"

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "labeling/query_kernel.h"
#include "util/serde.h"

namespace hopdb {

namespace {

constexpr char kMagic[4] = {'H', 'L', 'I', '2'};
/// Current write version: blocked arenas + per-block pivot sidecars.
constexpr uint32_t kHli2Version = 2;
/// Oldest version Open() still reads (packed arenas, no sidecars).
constexpr uint32_t kHli2MinReadVersion = 1;
constexpr uint64_t kFlagDirected = 1ull << 0;
constexpr size_t kHeaderBytes = 128;
constexpr size_t kHeaderChecksumOffV1 = 96;
constexpr size_t kHeaderChecksumOffV2 = 64;
constexpr size_t kSectionAlign = 64;

uint64_t AlignUp(uint64_t off) {
  return (off + kSectionAlign - 1) & ~static_cast<uint64_t>(kSectionAlign - 1);
}

uint64_t AlignUpBlock(uint64_t entries) {
  return (entries + kLabelBlockEntries - 1) / kLabelBlockEntries *
         kLabelBlockEntries;
}

/// Appends zero bytes until `buf` is kSectionAlign-aligned.
void PadToAlignment(std::string* buf) {
  buf->resize(AlignUp(buf->size()), '\0');
}

struct Header {
  uint32_t version = 0;
  uint64_t flags = 0;
  uint32_t num_vertices = 0;
  uint64_t total_entries = 0;
  uint64_t padded_entries = 0;  // v2 only; == total_entries on v1
  uint64_t file_size = 0;
  uint64_t meta_checksum = 0;
  uint64_t arena_checksum = 0;
  // v1 kept explicit section offsets in the header; v2 derives them.
  uint64_t v1_offsets_off = 0;
  uint64_t v1_pivots_off = 0;
  uint64_t v1_dists_off = 0;
  uint64_t v1_rank_to_orig_off = 0;
  uint64_t v1_orig_to_rank_off = 0;
};

/// Byte offsets of the canonical v2 section order, derived entirely
/// from the slot count, vertex count, and padded entry count. The
/// writer emits exactly this layout and Open() recomputes it and
/// requires exact agreement — subsuming ordering, overlap, alignment,
/// and bounds checks in one shot.
struct LayoutV2 {
  uint64_t offsets_off = 0;
  uint64_t sizes_off = 0;
  uint64_t pivots_off = 0;
  uint64_t dists_off = 0;
  uint64_t block_min_off = 0;
  uint64_t block_max_off = 0;
  uint64_t rank_to_orig_off = 0;
  uint64_t orig_to_rank_off = 0;
  uint64_t file_size = 0;
};

LayoutV2 ComputeLayoutV2(uint64_t num_slots, uint64_t n, uint64_t padded) {
  const uint64_t blocks = padded / kLabelBlockEntries;
  LayoutV2 l;
  l.offsets_off = AlignUp(kHeaderBytes);
  l.sizes_off = AlignUp(l.offsets_off + (num_slots + 1) * sizeof(uint64_t));
  l.pivots_off = AlignUp(l.sizes_off + num_slots * sizeof(uint32_t));
  l.dists_off = AlignUp(l.pivots_off + padded * sizeof(uint32_t));
  l.block_min_off = AlignUp(l.dists_off + padded * sizeof(uint32_t));
  l.block_max_off = AlignUp(l.block_min_off + blocks * sizeof(uint32_t));
  l.rank_to_orig_off = AlignUp(l.block_max_off + blocks * sizeof(uint32_t));
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
  h->version = DecodeU32(data + 4);
  if (h->version < kHli2MinReadVersion || h->version > kHli2Version) {
    return Status::InvalidArgument(
        "unsupported HLI2 version " + std::to_string(h->version) +
        " (this build reads versions " + std::to_string(kHli2MinReadVersion) +
        ".." + std::to_string(kHli2Version) + "): " + path);
  }
  h->flags = DecodeU64(data + 8);
  h->num_vertices = DecodeU32(data + 16);
  h->total_entries = DecodeU64(data + 24);
  if (h->version == 1) {
    h->padded_entries = h->total_entries;
    h->v1_offsets_off = DecodeU64(data + 32);
    h->v1_pivots_off = DecodeU64(data + 40);
    h->v1_dists_off = DecodeU64(data + 48);
    h->v1_rank_to_orig_off = DecodeU64(data + 56);
    h->v1_orig_to_rank_off = DecodeU64(data + 64);
    h->file_size = DecodeU64(data + 72);
    h->meta_checksum = DecodeU64(data + 80);
    h->arena_checksum = DecodeU64(data + 88);
    if (Fnv1a64(data, kHeaderChecksumOffV1) !=
        DecodeU64(data + kHeaderChecksumOffV1)) {
      return Status::InvalidArgument("HLI2 header checksum mismatch: " + path);
    }
  } else {
    h->padded_entries = DecodeU64(data + 32);
    h->file_size = DecodeU64(data + 40);
    h->meta_checksum = DecodeU64(data + 48);
    h->arena_checksum = DecodeU64(data + 56);
    if (Fnv1a64(data, kHeaderChecksumOffV2) !=
        DecodeU64(data + kHeaderChecksumOffV2)) {
      return Status::InvalidArgument("HLI2 header checksum mismatch: " + path);
    }
  }
  return Status::OK();
}

}  // namespace

Status MappedIndex::Write(const TwoHopIndex& labels,
                          const RankMapping& mapping,
                          const std::string& path) {
  return WriteVersion(labels, mapping, path, kHli2Version);
}

Status MappedIndex::WriteVersion(const TwoHopIndex& labels,
                                 const RankMapping& mapping,
                                 const std::string& path, uint32_t version) {
  if (version < kHli2MinReadVersion || version > kHli2Version) {
    return Status::InvalidArgument("unwritable HLI2 version " +
                                   std::to_string(version));
  }
  const VertexId n = labels.num_vertices();
  if (mapping.size() != n) {
    return Status::InvalidArgument(
        "rank mapping covers " + std::to_string(mapping.size()) +
        " vertices but the index has " + std::to_string(n));
  }
  // Serialize the frozen store: the writer reads what queries read.
  const LabelSetView view = labels.labels();
  const size_t num_slots = view.num_slots();
  uint64_t total = 0;
  for (size_t s = 0; s < num_slots; ++s) total += view.sizes[s];

  Header h;
  h.version = version;
  h.flags = labels.directed() ? kFlagDirected : 0;
  h.num_vertices = n;
  h.total_entries = total;
  h.padded_entries = view.offsets[num_slots];

  std::string buf;
  buf.resize(kHeaderBytes, '\0');

  if (version == 1) {
    // Legacy packed layout: cumulative real-entry offsets, tightly
    // packed arenas, explicit section offsets in the header.
    h.v1_offsets_off = AlignUp(kHeaderBytes);
    h.v1_pivots_off =
        AlignUp(h.v1_offsets_off + (num_slots + 1) * sizeof(uint64_t));
    h.v1_dists_off = AlignUp(h.v1_pivots_off + total * sizeof(uint32_t));
    h.v1_rank_to_orig_off =
        AlignUp(h.v1_dists_off + total * sizeof(uint32_t));
    h.v1_orig_to_rank_off = AlignUp(h.v1_rank_to_orig_off +
                                    static_cast<uint64_t>(n) *
                                        sizeof(uint32_t));
    h.file_size =
        h.v1_orig_to_rank_off + static_cast<uint64_t>(n) * sizeof(uint32_t);
    buf.reserve(h.file_size);

    uint64_t running = 0;
    PutU64(&buf, 0);
    for (size_t s = 0; s < num_slots; ++s) {
      running += view.sizes[s];
      PutU64(&buf, running);
    }
    PadToAlignment(&buf);
    const size_t pivots_begin = buf.size();
    for (size_t s = 0; s < num_slots; ++s) {
      const FlatLabelStore::View slot = view.Slot(s);
      buf.append(reinterpret_cast<const char*>(slot.pivots),
                 static_cast<size_t>(slot.size) * sizeof(uint32_t));
    }
    PadToAlignment(&buf);
    const size_t dists_begin = buf.size();
    for (size_t s = 0; s < num_slots; ++s) {
      const FlatLabelStore::View slot = view.Slot(s);
      buf.append(reinterpret_cast<const char*>(slot.dists),
                 static_cast<size_t>(slot.size) * sizeof(uint32_t));
    }
    PadToAlignment(&buf);
    const size_t rank_to_orig_begin = buf.size();
    for (VertexId r = 0; r < n; ++r) PutU32(&buf, mapping.rank_to_orig[r]);
    PadToAlignment(&buf);
    const size_t orig_to_rank_begin = buf.size();
    for (VertexId v = 0; v < n; ++v) PutU32(&buf, mapping.orig_to_rank[v]);

    if (pivots_begin != h.v1_pivots_off || dists_begin != h.v1_dists_off ||
        rank_to_orig_begin != h.v1_rank_to_orig_off ||
        orig_to_rank_begin != h.v1_orig_to_rank_off ||
        buf.size() != h.file_size) {
      return Status::Internal("HLI2 writer layout mismatch");
    }
    h.meta_checksum = Fnv1a64(buf.data() + h.v1_offsets_off,
                              h.v1_pivots_off - h.v1_offsets_off) ^
                      Fnv1a64(buf.data() + h.v1_rank_to_orig_off,
                              h.file_size - h.v1_rank_to_orig_off);
    h.arena_checksum = Fnv1a64(buf.data() + h.v1_pivots_off,
                               h.v1_rank_to_orig_off - h.v1_pivots_off);

    uint8_t* hd = reinterpret_cast<uint8_t*>(buf.data());
    std::memcpy(hd, kMagic, 4);
    EncodeU32(1, hd + 4);
    EncodeU64(h.flags, hd + 8);
    EncodeU32(h.num_vertices, hd + 16);
    EncodeU32(0, hd + 20);
    EncodeU64(h.total_entries, hd + 24);
    EncodeU64(h.v1_offsets_off, hd + 32);
    EncodeU64(h.v1_pivots_off, hd + 40);
    EncodeU64(h.v1_dists_off, hd + 48);
    EncodeU64(h.v1_rank_to_orig_off, hd + 56);
    EncodeU64(h.v1_orig_to_rank_off, hd + 64);
    EncodeU64(h.file_size, hd + 72);
    EncodeU64(h.meta_checksum, hd + 80);
    EncodeU64(h.arena_checksum, hd + 88);
    EncodeU64(Fnv1a64(hd, kHeaderChecksumOffV1), hd + kHeaderChecksumOffV1);
    return WriteStringToFile(path, buf);
  }

  // Version 2: blocked arenas + sidecars, canonical derived layout.
  const LayoutV2 l = ComputeLayoutV2(num_slots, n, h.padded_entries);
  buf.reserve(l.file_size);

  const size_t offsets_begin = buf.size();
  for (size_t s = 0; s <= num_slots; ++s) PutU64(&buf, view.offsets[s]);
  PadToAlignment(&buf);
  const size_t sizes_begin = buf.size();
  buf.append(reinterpret_cast<const char*>(view.sizes),
             num_slots * sizeof(uint32_t));
  PadToAlignment(&buf);
  const size_t pivots_begin = buf.size();
  buf.append(reinterpret_cast<const char*>(view.pivots),
             h.padded_entries * sizeof(uint32_t));
  PadToAlignment(&buf);
  const size_t dists_begin = buf.size();
  buf.append(reinterpret_cast<const char*>(view.dists),
             h.padded_entries * sizeof(uint32_t));
  PadToAlignment(&buf);
  const uint64_t blocks = h.padded_entries / kLabelBlockEntries;
  const size_t block_min_begin = buf.size();
  buf.append(reinterpret_cast<const char*>(view.block_min),
             blocks * sizeof(uint32_t));
  PadToAlignment(&buf);
  const size_t block_max_begin = buf.size();
  buf.append(reinterpret_cast<const char*>(view.block_max),
             blocks * sizeof(uint32_t));
  PadToAlignment(&buf);
  const size_t rank_to_orig_begin = buf.size();
  for (VertexId r = 0; r < n; ++r) PutU32(&buf, mapping.rank_to_orig[r]);
  PadToAlignment(&buf);
  const size_t orig_to_rank_begin = buf.size();
  for (VertexId v = 0; v < n; ++v) PutU32(&buf, mapping.orig_to_rank[v]);

  // The layout math and the append cursor must agree exactly.
  if (offsets_begin != l.offsets_off || sizes_begin != l.sizes_off ||
      pivots_begin != l.pivots_off || dists_begin != l.dists_off ||
      block_min_begin != l.block_min_off ||
      block_max_begin != l.block_max_off ||
      rank_to_orig_begin != l.rank_to_orig_off ||
      orig_to_rank_begin != l.orig_to_rank_off ||
      buf.size() != l.file_size) {
    return Status::Internal("HLI2 writer layout mismatch");
  }
  h.file_size = l.file_size;

  // The metadata checksum folds the offset/size tables in with the
  // permutation sections so corrupt slot structure or id translation is
  // caught at open time, not query time; the arena checksum covers both
  // arenas and both sidecars.
  h.meta_checksum =
      Fnv1a64(buf.data() + l.offsets_off, l.pivots_off - l.offsets_off) ^
      Fnv1a64(buf.data() + l.rank_to_orig_off,
              l.file_size - l.rank_to_orig_off);
  h.arena_checksum = Fnv1a64(buf.data() + l.pivots_off,
                             l.rank_to_orig_off - l.pivots_off);

  uint8_t* hd = reinterpret_cast<uint8_t*>(buf.data());
  std::memcpy(hd, kMagic, 4);
  EncodeU32(kHli2Version, hd + 4);
  EncodeU64(h.flags, hd + 8);
  EncodeU32(h.num_vertices, hd + 16);
  EncodeU32(0, hd + 20);
  EncodeU64(h.total_entries, hd + 24);
  EncodeU64(h.padded_entries, hd + 32);
  EncodeU64(h.file_size, hd + 40);
  EncodeU64(h.meta_checksum, hd + 48);
  EncodeU64(h.arena_checksum, hd + 56);
  EncodeU64(Fnv1a64(hd, kHeaderChecksumOffV2), hd + kHeaderChecksumOffV2);

  return WriteStringToFile(path, buf);
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
  // Reject entry counts before any size arithmetic: a crafted header
  // with counts near 2^62 would wrap count * 4 to a tiny number and
  // sail through the layout check below. (file_size already equals the
  // real mapped size, so this also bounds every product computed next.)
  if (h.total_entries > h.file_size / sizeof(uint32_t) ||
      h.padded_entries > h.file_size / sizeof(uint32_t) ||
      h.padded_entries < h.total_entries ||
      (h.version >= 2 && h.padded_entries % kLabelBlockEntries != 0)) {
    return Status::InvalidArgument(
        "HLI2 total_entries/padded_entries exceed what the file can hold "
        "or are inconsistent: " + path);
  }

  uint64_t offsets_off, pivots_off, dists_off, rank_to_orig_off,
      orig_to_rank_off;
  uint64_t sizes_off = 0, block_min_off = 0, block_max_off = 0;
  if (h.version == 1) {
    // The v1 section layout is canonical too (the v1 writer emitted
    // exactly this order and padding), so recompute it and require
    // exact agreement with the header's explicit offsets.
    Header want;
    want.v1_offsets_off = AlignUp(kHeaderBytes);
    want.v1_pivots_off =
        AlignUp(want.v1_offsets_off + (num_slots + 1) * sizeof(uint64_t));
    want.v1_dists_off =
        AlignUp(want.v1_pivots_off + h.total_entries * sizeof(uint32_t));
    want.v1_rank_to_orig_off =
        AlignUp(want.v1_dists_off + h.total_entries * sizeof(uint32_t));
    want.v1_orig_to_rank_off =
        AlignUp(want.v1_rank_to_orig_off + n * sizeof(uint32_t));
    want.file_size = want.v1_orig_to_rank_off + n * sizeof(uint32_t);
    if (h.v1_offsets_off != want.v1_offsets_off ||
        h.v1_pivots_off != want.v1_pivots_off ||
        h.v1_dists_off != want.v1_dists_off ||
        h.v1_rank_to_orig_off != want.v1_rank_to_orig_off ||
        h.v1_orig_to_rank_off != want.v1_orig_to_rank_off ||
        h.file_size != want.file_size) {
      return Status::InvalidArgument(
          "HLI2 section offsets disagree with the canonical layout for "
          "num_vertices/total_entries (truncated or crafted?): " + path);
    }
    offsets_off = h.v1_offsets_off;
    pivots_off = h.v1_pivots_off;
    dists_off = h.v1_dists_off;
    rank_to_orig_off = h.v1_rank_to_orig_off;
    orig_to_rank_off = h.v1_orig_to_rank_off;
  } else {
    const LayoutV2 l = ComputeLayoutV2(num_slots, n, h.padded_entries);
    if (l.file_size != h.file_size) {
      return Status::InvalidArgument(
          "HLI2 file size disagrees with the canonical v2 layout for "
          "num_vertices/padded_entries (truncated or crafted?): " + path);
    }
    offsets_off = l.offsets_off;
    sizes_off = l.sizes_off;
    pivots_off = l.pivots_off;
    dists_off = l.dists_off;
    block_min_off = l.block_min_off;
    block_max_off = l.block_max_off;
    rank_to_orig_off = l.rank_to_orig_off;
    orig_to_rank_off = l.orig_to_rank_off;
  }

  const uint8_t* base = file.data();
  uint64_t meta = Fnv1a64(base + offsets_off, pivots_off - offsets_off);
  meta ^= Fnv1a64(base + rank_to_orig_off, h.file_size - rank_to_orig_off);
  if (meta != h.meta_checksum) {
    return Status::InvalidArgument("HLI2 metadata checksum mismatch: " + path);
  }

  // Structural validation of everything queries index by: offsets
  // monotone (v2: block-aligned and exactly sizes[s] rounded up apart),
  // permutations inverse bijections. O(|V|) — this is the whole
  // non-constant cost of an open.
  const uint64_t* offsets =
      reinterpret_cast<const uint64_t*>(base + offsets_off);
  const uint32_t* sizes =
      h.version >= 2 ? reinterpret_cast<const uint32_t*>(base + sizes_off)
                     : nullptr;
  if (offsets[0] != 0 || offsets[num_slots] != h.padded_entries) {
    return Status::InvalidArgument("HLI2 offset table endpoints invalid: " +
                                   path);
  }
  if (h.version == 1) {
    for (uint64_t s = 0; s < num_slots; ++s) {
      if (offsets[s] > offsets[s + 1]) {
        return Status::InvalidArgument("HLI2 offset table not monotone: " +
                                       path);
      }
    }
  } else {
    uint64_t real_total = 0;
    for (uint64_t s = 0; s < num_slots; ++s) {
      if (offsets[s] % kLabelBlockEntries != 0 ||
          offsets[s + 1] != offsets[s] + AlignUpBlock(sizes[s])) {
        return Status::InvalidArgument(
            "HLI2 blocked offset table not block-aligned or inconsistent "
            "with slot sizes: " + path);
      }
      real_total += sizes[s];
    }
    if (real_total != h.total_entries) {
      return Status::InvalidArgument(
          "HLI2 slot sizes disagree with total_entries: " + path);
    }
  }
  const uint32_t* rank_to_orig =
      reinterpret_cast<const uint32_t*>(base + rank_to_orig_off);
  const uint32_t* orig_to_rank =
      reinterpret_cast<const uint32_t*>(base + orig_to_rank_off);
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
  index.version_ = h.version;
  index.num_vertices_ = h.num_vertices;
  index.total_entries_ = h.total_entries;
  index.padded_entries_ = h.padded_entries;
  index.arena_checksum_ = h.arena_checksum;
  const uint8_t* data = index.file_.data();
  index.offsets_ = reinterpret_cast<const uint64_t*>(data + offsets_off);
  index.pivots_ = reinterpret_cast<const uint32_t*>(data + pivots_off);
  index.dists_ = reinterpret_cast<const uint32_t*>(data + dists_off);
  if (h.version >= 2) {
    index.sizes_ = reinterpret_cast<const uint32_t*>(data + sizes_off);
    index.block_min_ =
        reinterpret_cast<const uint32_t*>(data + block_min_off);
    index.block_max_ =
        reinterpret_cast<const uint32_t*>(data + block_max_off);
  }
  index.rank_to_orig_ =
      reinterpret_cast<const uint32_t*>(data + rank_to_orig_off);
  index.orig_to_rank_ =
      reinterpret_cast<const uint32_t*>(data + orig_to_rank_off);

  if (options.verify_arenas) {
    HOPDB_RETURN_NOT_OK(index.VerifyArenas());
  }
  if (options.prefault) {
    index.file_.AdviseWillNeed();
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
  // pivot section start to the rank_to_orig section start (both arenas,
  // the v2 block sidecars, and the inter-section padding).
  const uint8_t* begin = reinterpret_cast<const uint8_t*>(pivots_);
  const uint8_t* end = reinterpret_cast<const uint8_t*>(rank_to_orig_);
  if (Fnv1a64(begin, static_cast<size_t>(end - begin)) != arena_checksum_) {
    return Status::InvalidArgument("HLI2 label arena checksum mismatch: " +
                                   path());
  }
  return Status::OK();
}

}  // namespace hopdb
