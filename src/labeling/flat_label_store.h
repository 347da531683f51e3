// FlatLabelStore: contiguous structure-of-arrays label storage — the
// frozen form every query of a heap index reads (TwoHopIndex::labels()).
//
// The builder-facing representation (vector<LabelVector>) is ideal for
// incremental merging but poor for querying: every label lookup chases a
// heap pointer, and the interleaved (pivot, dist) pairs waste half of each
// cache line during the pivot-comparison phase of a merge-join. The flat
// store packs all label entries into two parallel 64-byte-aligned arenas
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
// slot's real entries stay contiguous from its aligned start, the raw
// (pivots, dists, size) view of a slot is unchanged — unblocked
// consumers keep working and simply never read the padding.
//
// Slot layout: out-labels of vertices 0..n-1 occupy slots [0, n); for
// directed indexes the in-labels follow in slots [n, 2n) — each
// direction's entries are one contiguous range of the arenas. Within a
// slot, entries stay strictly sorted by pivot (the TwoHopIndex invariant).
//
// A store is frozen once, by Build, and never edited: TwoHopIndex
// re-freezes a new one when its label vectors change, and the store has
// no serialized form of its own (HLI2, labeling/mapped_index.h, is the
// on-disk image of these arenas).

#ifndef HOPDB_LABELING_FLAT_LABEL_STORE_H_
#define HOPDB_LABELING_FLAT_LABEL_STORE_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "labeling/label_entry.h"
#include "util/aligned_buffer.h"

namespace hopdb {

class FlatLabelStore {
 public:
  /// Non-owning view of one vertex's label in SoA form: pivots[i] pairs
  /// with dists[i]; pivots are strictly ascending. Valid as long as the
  /// store it came from is alive and unmodified. When the backing store
  /// is blocked, block_min/block_max point at this slot's per-block
  /// pivot sidecars (entry g covers label entries [g*16, (g+1)*16)) and
  /// the pivot/dist arrays are readable through the padded end of the
  /// last block; both are null for unblocked views (mapped v1 files,
  /// builder arenas) and the kernels fall back to unblocked scans.
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
  /// `sizes` carries per-slot real entry counts for blocked layouts
  /// (where offsets are padded block starts); when null the layout is
  /// packed and sizes derive from adjacent offsets. `block_min` /
  /// `block_max` are the global block sidecars (indexed by
  /// arena_entry / kLabelBlockEntries), null when unblocked.
  struct LabelSetView {
    VertexId num_vertices = 0;
    bool directed = false;
    const uint64_t* offsets = nullptr;  // num_slots() + 1 entries
    const uint32_t* pivots = nullptr;
    const uint32_t* dists = nullptr;
    const uint32_t* sizes = nullptr;      // per-slot counts; null = packed
    const uint32_t* block_min = nullptr;  // per-block sidecars; null =
    const uint32_t* block_max = nullptr;  //   unblocked layout

    size_t num_slots() const {
      return directed ? 2 * static_cast<size_t>(num_vertices) : num_vertices;
    }
    View Slot(size_t slot) const {
      const uint64_t begin = offsets[slot];
      const uint32_t size =
          sizes != nullptr ? sizes[slot]
                           : static_cast<uint32_t>(offsets[slot + 1] - begin);
      const uint64_t block = begin / kLabelBlockEntries;
      return View{pivots + begin, dists + begin, size,
                  block_min == nullptr ? nullptr : block_min + block,
                  block_max == nullptr ? nullptr : block_max + block};
    }
    /// Per-vertex label views, mirroring TwoHopIndex::OutLabel/InLabel:
    /// undirected sets alias In(v) to Out(v).
    View Out(VertexId v) const { return Slot(v); }
    View In(VertexId v) const {
      return Slot(directed ? static_cast<size_t>(num_vertices) + v : v);
    }
  };

  FlatLabelStore() = default;

  /// Flattens per-vertex label vectors (the TwoHopIndex representation)
  /// into the blocked SoA arenas. For undirected indexes pass an empty
  /// `in`. O(total entries) time, one allocation per arena.
  static FlatLabelStore Build(const std::vector<LabelVector>& out,
                              const std::vector<LabelVector>& in,
                              bool directed);

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

/// Reusable SoA label arena for iteration-scoped frozen snapshots — the
/// builder's witness store for SIMD rule-(ii) pruning. Same slot layout
/// as FlatLabelStore (packed pivot/dist arenas plus an offset table) but
/// built for repeated rebuild cycles: Reset keeps the high-water arena
/// capacity, so steady-state per-iteration rebuilds allocate nothing.
/// The caller fills slots through the mutable pointers after Reset; views
/// are valid until the next Reset. Arena views are unblocked (no
/// sidecars): the builder's witness scans are short prefix scans that
/// gain nothing from block skipping.
class FlatLabelArena {
 public:
  /// Starts a fresh snapshot with `num_slots` slots whose entry counts
  /// are `sizes[0..num_slots)`. Discards previous contents; slot storage
  /// is uninitialized until the caller writes it.
  void Reset(size_t num_slots, const uint64_t* sizes) {
    offsets_.resize(num_slots + 1);
    uint64_t total = 0;
    offsets_[0] = 0;
    for (size_t s = 0; s < num_slots; ++s) {
      total += sizes[s];
      offsets_[s + 1] = total;
    }
    pivots_.ResetDiscard(total);
    dists_.ResetDiscard(total);
  }

  size_t num_slots() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  uint64_t TotalEntries() const { return pivots_.size(); }
  uint64_t CapacityBytes() const {
    return (pivots_.capacity() + dists_.capacity()) * sizeof(uint32_t);
  }

  uint32_t* slot_pivots(size_t slot) { return pivots_.data() + offsets_[slot]; }
  uint32_t* slot_dists(size_t slot) { return dists_.data() + offsets_[slot]; }
  uint32_t slot_size(size_t slot) const {
    return static_cast<uint32_t>(offsets_[slot + 1] - offsets_[slot]);
  }

  FlatLabelStore::View View(size_t slot) const {
    const uint64_t begin = offsets_[slot];
    return FlatLabelStore::View{pivots_.data() + begin, dists_.data() + begin,
                                static_cast<uint32_t>(offsets_[slot + 1] -
                                                      begin)};
  }

 private:
  std::vector<uint64_t> offsets_;
  AlignedU32Array pivots_;
  AlignedU32Array dists_;
};

}  // namespace hopdb

#endif  // HOPDB_LABELING_FLAT_LABEL_STORE_H_
