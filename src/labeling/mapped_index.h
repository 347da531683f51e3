// MappedIndex: the zero-copy, memory-mapped serving form of a hopdb
// label index — the HLI2 on-disk format.
//
// HLI1 deserializes into heap vectors on every load, so server startup
// and RELOAD cost O(total label entries). HLI2 instead lays the
// FlatLabelStore arenas, the per-slot offset table, and both rank
// permutations out on disk exactly as the query kernels want them in
// memory: little-endian, fixed-width, every section 64-byte aligned.
// Open() mmaps the file and validates only the metadata (header + offset
// table + permutations — O(|V|), independent of the label count), after
// which queries run through the standard QueryKernel dispatch directly
// over the page cache. Startup and hot-swap latency no longer scale with
// index size, and N processes serving the same file share one physical
// copy of the label pages.
//
// The file persists the PACKED arena layout (flat_label_store.h): slot
// s's entries are arena lanes [offsets[s], offsets[s+1]), with no
// padding, sidecars or size table, and each arena ends with 16 all-ones
// tail lanes — so the query kernels run over the mapping exactly as
// they do over a heap store, with no load-time reshaping. The distance
// lanes keep the store's width: 1 byte when every distance is at most
// 127 (read sign-extended), else 4, named by the header's width word.
// Version 4 is the only version written or read; Open() rejects a
// version-1 (packed, 4-byte lanes), version-2 (blocked, 4-byte lanes)
// or version-3 (blocked, store-width lanes) header with InvalidArgument
// pointing at `hopdb_cli convert`.
//
// File layout ("HLI2" version 4, little-endian; byte-exact spec in
// docs/FORMATS.md):
//
//   header (128 bytes):
//     off   0  magic "HLI2"
//     off   4  u32 version = 4
//     off   8  u64 flags                  bit0 = directed
//     off  16  u32 num_vertices
//     off  20  u32 dist_width             bytes a distance lane takes:
//                                         1 or 4 (anything else is
//                                         refused)
//     off  24  u64 total_entries          label entries
//     off  32  u64 reserved               written 0
//     off  40  u64 file_size              total bytes (truncation check)
//     off  48  u64 meta_checksum          fnv1a-64 of the offsets
//                                         section XOR fnv1a-64 of both
//                                         permutation sections
//     off  56  u64 arena_checksum         fnv1a-64 of the pivot and
//                                         dist sections, tails included
//     off  64  u64 header_checksum        fnv1a-64 of header bytes [0,64)
//     off  72  zero padding to 128
//   sections, in canonical order, each 64-byte aligned, with offsets
//   derived from num_vertices/total_entries/dist_width (not stored):
//     offsets:      (num_slots + 1) x u64 slot starts, num_slots =
//                   2 * |V| directed, |V| undirected; offsets[0] == 0,
//                   monotone, offsets[num_slots] == total_entries
//     pivots:       (total_entries + 16) x u32, the last 16 0xFFFFFFFF
//     dists:        (total_entries + 16) x (i8 | u32), per dist_width,
//                   the last 16 all ones
//     rank_to_orig: |V| x u32   (rank -> original id)
//     orig_to_rank: |V| x u32   (original id -> rank)
//
// Integrity model: Open() always verifies the header checksum, the
// metadata checksum, section bounds against file_size (with explicit
// total_entries overflow rejection, so a file cut before its tail lanes
// is refused), the offset table (starts at 0, monotone, ends at
// total_entries, every slot below 2^32 entries), and that the two
// permutations are inverse bijections — so a truncated or
// metadata-corrupt file fails with a clean Status and a malformed offset
// table can never send a query out of bounds: a slot's lanes, and the 16
// past its end that a block load reads, lie inside the arenas. The label
// arenas are NOT hashed on open (that would re-read the whole file and
// defeat the O(1) load); their corruption is bounds-safe — the
// merge-join kernels only compare pivots, and the batch/KNN engines skip
// out-of-range pivots when building from a LabelSetView — so a corrupt
// arena can mis-answer but never crash, and is detectable via
// VerifyArenas() (used by `hopdb_cli convert --verify` and the
// corruption tests) or an explicit OpenOptions::verify_arenas.

#ifndef HOPDB_LABELING_MAPPED_INDEX_H_
#define HOPDB_LABELING_MAPPED_INDEX_H_

#include <cstdint>
#include <string>

#include "graph/ranking.h"
#include "graph/types.h"
#include "io/mmap_file.h"
#include "labeling/flat_label_store.h"
#include "labeling/two_hop_index.h"
#include "util/status.h"

namespace hopdb {

class MappedIndex {
 public:
  struct OpenOptions {
    /// Also verify the label-arena checksum during Open (one sequential
    /// read of the whole file — O(total entries), defeating the O(1)
    /// load). Off by default; serving paths rely on the always-on
    /// metadata validation for memory safety instead.
    bool verify_arenas = false;
  };

  MappedIndex() = default;

  /// Serializes `labels` + `mapping` into a new HLI2 file at `path`
  /// (version 4: packed arenas with their tails, distance lanes at the
  /// store's width) from the index's frozen store — the labels its
  /// queries answer from (two_hop_index.h). O(total entries) time; the
  /// written file round-trips bit-exactly through Open(). The sections
  /// stream through one fixed window into a temporary file beside
  /// `path`, which is synced and renamed over `path`: a reader sees the
  /// old file or the new one, and a failed write (IOError) leaves the
  /// old one and no temporary file.
  static Status Write(const TwoHopIndex& labels, const RankMapping& mapping,
                      const std::string& path);

  /// Maps an HLI2 file and validates its metadata (see the integrity
  /// model above). O(|V|) work regardless of label count. Fails with
  /// InvalidArgument on bad magic/version/width/structure or checksum
  /// mismatch (a version-1, -2 or -3 header names `hopdb_cli convert`) and
  /// IOError when the file cannot be mapped; never crashes on truncated
  /// or corrupt input. The returned index serves queries immediately; no
  /// rehydration step exists.
  static Result<MappedIndex> Open(const std::string& path,
                                  const OpenOptions& options);
  static Result<MappedIndex> Open(const std::string& path) {
    return Open(path, OpenOptions{});
  }

  /// True between a successful Open and destruction/move-out.
  bool mapped() const { return file_.mapped(); }

  VertexId num_vertices() const { return num_vertices_; }
  bool directed() const { return directed_; }
  uint64_t TotalEntries() const { return total_entries_; }
  /// Bytes a distance lane takes (1 or 4), as the frozen store chose.
  uint32_t dist_width() const { return dist_width_; }
  const std::string& path() const { return file_.path(); }

  /// Exact distance between ORIGINAL vertex ids (the embedded
  /// permutation translates internally); kInfDistance when unreachable.
  /// Routed through the active SIMD query kernel over the mapped arenas
  /// — same cost and same results as HopDbIndex::Query on the
  /// equivalent heap index.
  ///
  /// Thread safety: const over an immutable read-only mapping — safe for
  /// any number of concurrent callers, like the heap read path.
  Distance Query(VertexId src, VertexId dst) const;

  /// Id translation over the mapped permutation sections (O(1) array
  /// reads; ids must be < num_vertices()).
  VertexId ToInternal(VertexId orig) const { return orig_to_rank_[orig]; }
  VertexId ToOriginal(VertexId internal) const {
    return rank_to_orig_[internal];
  }
  /// The permutation sections themselves (num_vertices() entries each).
  const VertexId* orig_to_rank() const { return orig_to_rank_; }
  const VertexId* rank_to_orig() const { return rank_to_orig_; }

  /// The mapped label set (INTERNAL/rank ids) for engines that consume
  /// LabelSetView (query/batch.h, query/knn.h). Valid while this index
  /// is alive and unmoved.
  LabelSetView labels() const {
    return LabelSetView{num_vertices_, directed_, dist_width_,
                        offsets_,      pivots_,   dists_};
  }

  /// Size of the whole mapping in bytes (== file size).
  uint64_t MappedBytes() const { return file_.size(); }

  /// Bytes of the mapping currently resident in physical memory (see
  /// MmapFile::ResidentBytes). The honest "how much RAM does this index
  /// use" number for an mmap-served index: near 0 right after a cold
  /// open, growing as queries touch pages.
  uint64_t ResidentBytes() const { return file_.ResidentBytes(); }

  /// Re-hashes the pivot/dist arenas against the header's
  /// arena_checksum. O(total entries) sequential read; InvalidArgument
  /// on mismatch. The mutation-shaped integrity check for a format that
  /// has no mutation path.
  Status VerifyArenas() const;

 private:
  MmapFile file_;
  bool directed_ = false;
  VertexId num_vertices_ = 0;
  uint32_t dist_width_ = 1;
  uint64_t total_entries_ = 0;
  uint64_t arena_checksum_ = 0;
  // Typed section pointers into the mapping.
  const uint64_t* offsets_ = nullptr;
  const uint32_t* pivots_ = nullptr;
  const uint8_t* dists_ = nullptr;
  const uint32_t* rank_to_orig_ = nullptr;
  const uint32_t* orig_to_rank_ = nullptr;
};

}  // namespace hopdb

#endif  // HOPDB_LABELING_MAPPED_INDEX_H_
