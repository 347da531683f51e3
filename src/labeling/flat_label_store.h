// FlatLabelStore: contiguous structure-of-arrays label storage — the one
// form a heap index holds its labels in (TwoHopIndex is this store plus
// its read API).
//
// Per-vertex label vectors (vector<LabelVector>) are what the builders
// emit and IncrementalUpdater repairs: ideal for incremental merging but
// poor for querying, because every label lookup chases a heap pointer
// and the interleaved (pivot, dist) pairs waste half of each cache line
// during the pivot-comparison phase of a merge-join. The flat store
// packs all label entries into two parallel 64-byte-aligned arenas
// (all pivots, all distances) in slot order with one offset table, so a
// query touches exactly two contiguous runs and the SIMD kernels
// (labeling/query_kernel.h) can stream 8 pivots per compare.
//
// BLOCKED LAYOUT (cache-conscious microarchitecture): every slot starts
// on a kLabelBlockEntries (= 16 entries = 64 bytes) boundary and is
// padded up to a block multiple, with padding lanes holding 0xFFFFFFFF
// in both arenas. Two sidecar arrays carry, per block, the minimum and
// maximum real pivot in that block, so the merge-join kernels skip
// whole non-overlapping blocks from the sidecars alone and process
// overlapping blocks with full-width SIMD and no scalar tail. Padding
// is provably inert to the kernels (see label_entry.h). Because a
// slot's real entries stay contiguous from its aligned start, consumers
// that walk (pivots, dists, size) directly never read the padding.
//
// Slot layout: out-labels of vertices 0..n-1 occupy slots [0, n); for
// directed indexes the in-labels follow in slots [n, 2n) — each
// direction's entries are one contiguous range of the arenas. Within a
// slot, entries stay strictly sorted by pivot (the TwoHopIndex invariant).
//
// A store is frozen once — by Build from label vectors, or slot by slot
// by FromSlots (the HLI1 loader decodes straight into the arenas) — and
// never edited: a repair freezes a new store from the updater's vectors
// (IncrementalUpdater::Finalize). The store
// has no serialized form of its own: HLI1 (two_hop_index.h) holds its
// real entries, and HLI2 (labeling/mapped_index.h) is the on-disk image
// of its arenas.

#ifndef HOPDB_LABELING_FLAT_LABEL_STORE_H_
#define HOPDB_LABELING_FLAT_LABEL_STORE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "labeling/label_entry.h"
#include "util/aligned_buffer.h"
#include "util/logging.h"
#include "util/status.h"

namespace hopdb {

class FlatLabelStore {
 public:
  /// Non-owning view of one vertex's label in SoA form: pivots[i] pairs
  /// with dists[i]; pivots are strictly ascending. Valid as long as the
  /// store or mapped HLI2 file it came from is alive and unmodified.
  /// Every view carries its slot's per-block pivot sidecars
  /// (block_min/block_max; entry g covers label entries [g*16,
  /// (g+1)*16)), and its pivot/dist arrays are readable through the
  /// padded end of the last block.
  struct View {
    const uint32_t* pivots = nullptr;
    const uint32_t* dists = nullptr;
    uint32_t size = 0;
    const uint32_t* block_min = nullptr;
    const uint32_t* block_max = nullptr;
  };

  /// Non-owning view over a COMPLETE label set in the flat slot layout
  /// (offset table + pivot arena + distance arena). This is the common
  /// denominator between a heap-resident FlatLabelStore and a
  /// memory-mapped HLI2 index (labeling/mapped_index.h): query engines
  /// (query/batch.h, query/knn.h) built from a LabelSetView run
  /// identically over either backing store. Trivially copyable; the
  /// pointed-to arrays must outlive every engine built from the view.
  ///
  /// The layout is always blocked: `offsets` are padded block starts,
  /// `sizes` the per-slot real entry counts, and `block_min` /
  /// `block_max` the global block sidecars (indexed by
  /// arena_entry / kLabelBlockEntries). There is no packed or
  /// sidecar-less form.
  struct LabelSetView {
    VertexId num_vertices = 0;
    bool directed = false;
    const uint64_t* offsets = nullptr;  // num_slots() + 1 entries
    const uint32_t* pivots = nullptr;
    const uint32_t* dists = nullptr;
    const uint32_t* sizes = nullptr;      // num_slots() real entry counts
    const uint32_t* block_min = nullptr;  // per-block pivot minima
    const uint32_t* block_max = nullptr;  // ... and maxima

    size_t num_slots() const {
      return directed ? 2 * static_cast<size_t>(num_vertices) : num_vertices;
    }
    View Slot(size_t slot) const {
      const uint64_t begin = offsets[slot];
      const uint64_t block = begin / kLabelBlockEntries;
      return View{pivots + begin, dists + begin, sizes[slot],
                  block_min + block, block_max + block};
    }
    /// Per-vertex label views, mirroring TwoHopIndex::OutLabel/InLabel:
    /// undirected sets alias In(v) to Out(v).
    View Out(VertexId v) const { return Slot(v); }
    View In(VertexId v) const {
      return Slot(directed ? static_cast<size_t>(num_vertices) + v : v);
    }
  };

  FlatLabelStore() = default;

  /// Flattens per-vertex label vectors (what builders emit and the
  /// updater repairs) into the blocked SoA arenas. For undirected
  /// indexes pass an empty `in`. O(total entries) time, one allocation
  /// per arena.
  static FlatLabelStore Build(const std::vector<LabelVector>& out,
                              const std::vector<LabelVector>& in,
                              bool directed);

  /// Builds a store slot by slot: `sizes` holds every slot's entry count
  /// (out-labels of 0..n-1, then in-labels when directed), and
  /// fill(slot, size, pivots, dists) is called once per slot, in slot
  /// order, to write that slot's `size` (= sizes[slot]) entries. A fill
  /// that returns an error stops the build, and FromSlots returns that
  /// error. Then pads the blocks and derives the sidecars.
  /// O(total entries), one allocation per arena.
  template <typename Fill>
  static Result<FlatLabelStore> FromSlots(VertexId num_vertices,
                                          bool directed,
                                          std::vector<uint32_t> sizes,
                                          Fill&& fill) {
    FlatLabelStore store;
    store.directed_ = directed;
    store.num_vertices_ = num_vertices;
    HOPDB_CHECK_EQ(sizes.size(), store.num_slots());
    store.InitBlockedLayout(std::move(sizes));
    for (size_t slot = 0; slot < store.sizes_.size(); ++slot) {
      const uint64_t begin = store.offsets_[slot];
      HOPDB_RETURN_NOT_OK(fill(slot, store.sizes_[slot],
                               store.pivots_.data() + begin,
                               store.dists_.data() + begin));
    }
    store.FinalizeBlocks();
    return store;
  }

  VertexId num_vertices() const { return num_vertices_; }
  bool directed() const { return directed_; }
  /// Real label entries (excluding block padding).
  uint64_t TotalEntries() const { return total_entries_; }
  /// Arena entries including block padding; PaddedEntries() / 16 blocks.
  uint64_t PaddedEntries() const { return pivots_.size(); }

  /// Label views; v must be < num_vertices(). For undirected stores
  /// In(v) aliases Out(v), mirroring TwoHopIndex::InLabel.
  View Out(VertexId v) const { return Slot(v); }
  View In(VertexId v) const {
    return Slot(directed_ ? static_cast<size_t>(num_vertices_) + v : v);
  }

  /// In-memory footprint: arenas, sidecars, and the offset/size tables.
  uint64_t SizeBytes() const;

  /// The whole store as a LabelSetView (for engines that also accept
  /// mapped indexes). Valid until the store is destroyed or reassigned;
  /// a default-constructed store yields an empty view.
  LabelSetView view() const {
    return LabelSetView{num_vertices_,  directed_,        offsets_.data(),
                        pivots_.data(), dists_.data(),    sizes_.data(),
                        block_min_.data(), block_max_.data()};
  }

 private:
  size_t num_slots() const {
    return directed_ ? 2 * static_cast<size_t>(num_vertices_)
                     : num_vertices_;
  }
  View Slot(size_t slot) const {
    const uint64_t begin = offsets_[slot];
    const uint64_t block = begin / kLabelBlockEntries;
    return View{pivots_.data() + begin, dists_.data() + begin, sizes_[slot],
                block_min_.data() + block, block_max_.data() + block};
  }

  /// Sets sizes_/offsets_/total_entries_ from per-slot counts and
  /// allocates the padded arenas (contents uninitialized).
  void InitBlockedLayout(std::vector<uint32_t> sizes);
  /// After the real entries are written: fills every slot's padding
  /// lanes with 0xFFFFFFFF and derives the block_min_/block_max_
  /// sidecars.
  void FinalizeBlocks();

  bool directed_ = false;
  VertexId num_vertices_ = 0;
  uint64_t total_entries_ = 0;
  std::vector<uint64_t> offsets_ = {0};  // num_slots + 1 padded block starts
  std::vector<uint32_t> sizes_;          // num_slots real entry counts
  AlignedU32Array pivots_;
  AlignedU32Array dists_;
  AlignedU32Array block_min_;  // PaddedEntries()/16 per-block pivot minima
  AlignedU32Array block_max_;  // ... and maxima (real pivots only)
};

/// Namespace-level shorthand: the view type is used far from the store
/// (query engines, the server) where the qualified name is noise.
using LabelSetView = FlatLabelStore::LabelSetView;

/// Read-only view of one frozen label (TwoHopIndex::OutLabel/InLabel)
/// for code that walks labels entry by entry: size(), empty(),
/// operator[] and forward iteration, each entry yielded as a LabelEntry
/// value rebuilt from the two arenas. Same lifetime as the store slot
/// it views. flat() gives the SoA view the query kernels take.
class LabelView {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = LabelEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = LabelEntry;

    Iterator() = default;
    LabelEntry operator*() const { return {*pivot_, *dist_}; }
    Iterator& operator++() {
      ++pivot_;
      ++dist_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& other) const {
      return pivot_ == other.pivot_;
    }

   private:
    friend class LabelView;
    Iterator(const uint32_t* pivot, const uint32_t* dist)
        : pivot_(pivot), dist_(dist) {}

    const uint32_t* pivot_ = nullptr;
    const uint32_t* dist_ = nullptr;
  };

  explicit LabelView(FlatLabelStore::View flat) : flat_(flat) {}

  size_t size() const { return flat_.size; }
  bool empty() const { return flat_.size == 0; }
  LabelEntry operator[](size_t i) const {
    return {flat_.pivots[i], flat_.dists[i]};
  }
  Iterator begin() const { return Iterator(flat_.pivots, flat_.dists); }
  Iterator end() const {
    return Iterator(flat_.pivots + flat_.size, flat_.dists + flat_.size);
  }
  const FlatLabelStore::View& flat() const { return flat_; }

 private:
  FlatLabelStore::View flat_;
};

/// Invokes fn(pivot, dist) for every entry of one side's label of v,
/// SKIPPING entries whose pivot is >= view.num_vertices: a LabelSetView
/// may alias the unhashed label arenas of a memory-mapped HLI2 file
/// (labeling/mapped_index.h integrity model), and callers index arrays
/// by pivot — a corrupt arena must be able to mis-answer but never
/// write or read out of bounds. This is the single shared
/// implementation of that safety-critical loop for every
/// view-consuming engine (query/batch.h, query/knn.h).
template <typename Fn>
void ForEachLabelEntry(const LabelSetView& view, bool in_side, VertexId v,
                       Fn&& fn) {
  const FlatLabelStore::View label = in_side ? view.In(v) : view.Out(v);
  for (uint32_t i = 0; i < label.size; ++i) {
    if (label.pivots[i] < view.num_vertices) {
      fn(label.pivots[i], label.dists[i]);
    }
  }
}

}  // namespace hopdb

#endif  // HOPDB_LABELING_FLAT_LABEL_STORE_H_
