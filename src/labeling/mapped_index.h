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
// Version 2 additionally persists the BLOCKED arena layout
// (flat_label_store.h): every slot's arena range starts on a 16-entry
// (64-byte) block boundary and is padded up to a block multiple with
// 0xFFFFFFFF lanes, and two sidecar sections carry each block's
// minimum/maximum real pivot — so the skip-scan kernels run over the
// mapping exactly as they do over a heap store, with no load-time
// reshaping. Version 1 files (packed arenas, no sidecars) stay
// readable: Open() is version-gated and serves v1 through the
// unblocked kernel paths.
//
// File layout ("HLI2" version 2, little-endian; byte-exact spec in
// docs/FORMATS.md):
//
//   header (128 bytes):
//     off   0  magic "HLI2"
//     off   4  u32 version = 2
//     off   8  u64 flags                  bit0 = directed
//     off  16  u32 num_vertices
//     off  20  u32 reserved (zero)
//     off  24  u64 total_entries          real label entries
//     off  32  u64 padded_entries         arena entries incl. block
//                                         padding (multiple of 16)
//     off  40  u64 file_size              total bytes (truncation check)
//     off  48  u64 meta_checksum          fnv1a-64 of offsets + sizes +
//                                         both permutation sections
//     off  56  u64 arena_checksum         fnv1a-64 of pivot + dist
//                                         arenas + both sidecars
//     off  64  u64 header_checksum        fnv1a-64 of header bytes [0,64)
//     off  72  zero padding to 128
//   sections, in canonical order, each 64-byte aligned, with offsets
//   derived from num_vertices/padded_entries (not stored):
//     offsets:      (num_slots + 1) x u64 padded arena entry indices,
//                   num_slots = 2 * |V| directed, |V| undirected; every
//                   value a multiple of 16, offsets[num_slots] ==
//                   padded_entries
//     sizes:        num_slots x u32 real entry counts
//     pivots:       padded_entries x u32
//     dists:        padded_entries x u32
//     block_min:    padded_entries / 16 x u32 per-block pivot minima
//     block_max:    padded_entries / 16 x u32 per-block pivot maxima
//     rank_to_orig: |V| x u32   (rank -> original id)
//     orig_to_rank: |V| x u32   (original id -> rank)
//
// (Version 1 stored packed arenas — offsets were cumulative real entry
// counts, no sizes/sidecar sections — and kept explicit section offsets
// in the header with the header checksum at offset 96.)
//
// Integrity model: Open() always verifies the header checksum, the
// metadata checksum, section bounds against file_size (with explicit
// total_entries/padded_entries overflow rejection), offset-table
// monotonicity and block alignment (v2: offsets[s+1] must equal
// offsets[s] + sizes[s] rounded up to a block), and that the two
// permutations are inverse bijections — so a truncated or
// metadata-corrupt file fails with a clean Status and a malformed
// offset table can never send a query out of bounds. The label arenas
// and block sidecars are NOT hashed on open (that would re-read the
// whole file and defeat the O(1) load); their corruption is
// bounds-safe — the merge-join kernels only compare pivots, a corrupt
// sidecar can only mis-steer block skipping within the mapped arenas,
// and the batch/KNN engines skip out-of-range pivots when building
// from a LabelSetView — so a corrupt arena can mis-answer but never
// crash, and is detectable via VerifyArenas() (used by `hopdb_cli
// convert --verify` and the corruption tests) or an explicit
// OpenOptions::verify_arenas.

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
    /// Ask the kernel to start readahead for the whole mapping right
    /// after validation (MADV_WILLNEED). Trades eager I/O for faster
    /// first queries on a cold file.
    bool prefault = false;
  };

  MappedIndex() = default;

  /// Serializes `labels` + `mapping` into a new HLI2 file at `path`
  /// (current version: 2, blocked arenas + sidecars) from the index's
  /// frozen store — the labels its queries answer from (two_hop_index.h).
  /// O(total entries) time and one file write; the written file
  /// round-trips bit-exactly through Open(). Peak memory is the heap
  /// index plus one full file image (the sections are checksummed
  /// before the header is sealed) — convert on a machine that fits
  /// both; serving needs neither.
  static Status Write(const TwoHopIndex& labels, const RankMapping& mapping,
                      const std::string& path);

  /// Version-parameterized writer, for compatibility coverage: emits
  /// the requested on-disk version (1 = packed legacy layout, 2 =
  /// blocked). InvalidArgument outside the readable version range.
  static Status WriteVersion(const TwoHopIndex& labels,
                             const RankMapping& mapping,
                             const std::string& path, uint32_t version);

  /// Maps an HLI2 file and validates its metadata (see the integrity
  /// model above). O(|V|) work regardless of label count. Fails with
  /// InvalidArgument on bad magic/version/structure or checksum
  /// mismatch and IOError when the file cannot be mapped; never crashes
  /// on truncated or corrupt input. The returned index serves queries
  /// immediately; no rehydration step exists.
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
  /// Arena entries including block padding; == TotalEntries() on v1.
  uint64_t PaddedEntries() const { return padded_entries_; }
  /// On-disk format version of the opened file (1 or 2).
  uint32_t format_version() const { return version_; }
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
  /// is alive and unmoved. v2 views carry the per-slot sizes and block
  /// sidecars, routing queries through the skip-scan kernels; v1 views
  /// leave them null and take the unblocked paths.
  LabelSetView labels() const {
    return LabelSetView{num_vertices_, directed_, offsets_,   pivots_,
                        dists_,        sizes_,    block_min_, block_max_};
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

  /// HLI2 is an immutable serving format: every mutation-shaped
  /// operation answers with this error (callers that need to edit labels
  /// must convert back to the heap HLI1 representation). Kept as a
  /// method so call sites read as intent, not as a stray status string.
  static Status MutationNotSupported(const char* operation) {
    return Status::Unimplemented(
        std::string("HLI2 mapped indexes are read-only: ") + operation +
        " is not supported (convert to HLI1 and rebuild to modify labels)");
  }

 private:
  MmapFile file_;
  bool directed_ = false;
  uint32_t version_ = 0;
  VertexId num_vertices_ = 0;
  uint64_t total_entries_ = 0;
  uint64_t padded_entries_ = 0;
  uint64_t arena_checksum_ = 0;
  // Typed section pointers into the mapping; sizes_/block_min_/
  // block_max_ stay null for v1 files.
  const uint64_t* offsets_ = nullptr;
  const uint32_t* pivots_ = nullptr;
  const uint32_t* dists_ = nullptr;
  const uint32_t* sizes_ = nullptr;
  const uint32_t* block_min_ = nullptr;
  const uint32_t* block_max_ = nullptr;
  const uint32_t* rank_to_orig_ = nullptr;
  const uint32_t* orig_to_rank_ = nullptr;
};

}  // namespace hopdb

#endif  // HOPDB_LABELING_MAPPED_INDEX_H_
