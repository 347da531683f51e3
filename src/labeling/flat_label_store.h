// FlatLabelStore: contiguous structure-of-arrays label storage — the one
// form a heap index holds its labels in (TwoHopIndex is this store plus
// its read API).
//
// Per-vertex label vectors (vector<LabelVector>) are what the baseline
// and external builders emit and IncrementalUpdater repairs (the
// in-memory builder grows page-mapped label arenas instead): ideal for
// incremental merging but
// poor for querying, because every label lookup chases a heap pointer
// and the interleaved (pivot, dist) pairs waste half of each cache line
// during the pivot-comparison phase of a merge-join. The flat store
// packs all label entries into two parallel 64-byte-aligned arenas
// (all pivots, all distances) in slot order with one offset table, so a
// query touches exactly two contiguous runs and the SIMD kernels
// (labeling/query_kernel.h) can stream 8 pivots per compare.
//
// DISTANCE LANES: pivots are u32, and every distance lane of a store has
// one width, chosen from the labels when the store is frozen: 1 byte
// when every distance is at most kMaxNarrowDistance (127), as on every
// unweighted scale-free graph (the paper's 8-bit distances), otherwise
// 4 bytes. One-byte lanes are read as signed and sign-extended (View::
// dist, and _mm256_cvtepi8_epi32 in the AVX2 kernel), so the 0xFF byte
// of a tail lane reads as kInfDistance exactly as a 4-byte tail lane
// does, and every reader past the load sees the same u32 values at
// either width.
//
// PACKED LAYOUT (the per-vertex label arrays of PLL, laid end to end):
// slot s holds exactly its real entries, at arena lanes
// [offsets[s], offsets[s+1]); a slot's size is the difference of its
// offsets. There is no padding between slots, no per-block sidecar and
// no size table. Each arena ends with kLabelBlockEntries tail lanes
// (0xFFFFFFFF pivots, all-ones distances), so the AVX2 kernel's 16-lane
// block loads stay in bounds on the last slot too; the lanes such a load
// reads past a label's end belong to the next slot or the tail, and the
// kernel masks them (query_kernel.h). Consumers that walk (pivots,
// dist(i), size) directly never read past a label's end.
//
// Slot layout: out-labels of vertices 0..n-1 occupy slots [0, n); for
// directed indexes the in-labels follow in slots [n, 2n) — each
// direction's entries are one contiguous range of the arenas. Within a
// slot, entries stay strictly sorted by pivot (the TwoHopIndex invariant).
//
// A store is frozen once, by FromSlots — slot by slot from the HLI1
// loader's decoder or the in-memory builder's label arenas, or from
// label vectors through Build (the other builders' and
// IncrementalUpdater::Finalize's freeze) — and never edited: a
// repair freezes a new store from the updater's vectors. The store
// has no serialized form of its own: HLI1 (two_hop_index.h) holds its
// entries as varints, and HLI2 (labeling/mapped_index.h) is the on-disk
// image of its offsets and arenas, distance lanes at the store's width.

#ifndef HOPDB_LABELING_FLAT_LABEL_STORE_H_
#define HOPDB_LABELING_FLAT_LABEL_STORE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "labeling/label_entry.h"
#include "util/aligned_buffer.h"
#include "util/logging.h"
#include "util/status.h"

namespace hopdb {

/// The largest distance a one-byte lane holds: a store whose distances
/// are all at most this keeps one-byte lanes (they read back signed, so
/// 128..255 would turn negative).
inline constexpr Distance kMaxNarrowDistance = 127;

/// Distance lane i of a distance arena whose lanes are `width` bytes (1
/// or 4). One-byte lanes sign-extend, so the 0xFF tail byte reads as
/// kInfDistance.
inline Distance ReadDistLane(const uint8_t* dists, uint32_t width,
                             uint64_t i) {
  if (width == 1) {
    return static_cast<Distance>(
        static_cast<int32_t>(static_cast<int8_t>(dists[i])));
  }
  uint32_t dist = 0;
  std::memcpy(&dist, dists + 4 * i, sizeof(dist));
  return dist;
}

class FlatLabelStore {
 public:
  /// Non-owning view of one vertex's label in SoA form: pivots[i] pairs
  /// with dist(i); pivots are strictly ascending. Valid as long as the
  /// store or mapped HLI2 file it came from is alive and unmodified.
  /// Lanes [size, size + kLabelBlockEntries) are readable too (the next
  /// slot's entries or the arena's tail) and belong to no label.
  struct View {
    const uint32_t* pivots = nullptr;
    const uint8_t* dists = nullptr;  // dist_width bytes a lane
    uint32_t size = 0;
    uint32_t dist_width = 1;  // 1 or 4

    Distance dist(uint64_t i) const {
      return ReadDistLane(dists, dist_width, i);
    }
  };

  /// Non-owning view over a COMPLETE label set in the packed slot layout
  /// (offset table + pivot arena + distance arena). This is the common
  /// denominator between a heap-resident FlatLabelStore and a
  /// memory-mapped HLI2 index (labeling/mapped_index.h): query engines
  /// (query/batch.h, query/knn.h) built from a LabelSetView run
  /// identically over either backing store. Trivially copyable; the
  /// pointed-to arrays must outlive every engine built from the view.
  ///
  /// Slot s spans arena lanes [offsets[s], offsets[s+1]), and both
  /// arenas hold offsets[num_slots()] + kLabelBlockEntries lanes (the
  /// last kLabelBlockEntries the all-ones tail). `dists` holds
  /// dist_width bytes a lane.
  struct LabelSetView {
    VertexId num_vertices = 0;
    bool directed = false;
    uint32_t dist_width = 1;            // 1 or 4
    const uint64_t* offsets = nullptr;  // num_slots() + 1 entries
    const uint32_t* pivots = nullptr;
    const uint8_t* dists = nullptr;

    size_t num_slots() const {
      return directed ? 2 * static_cast<size_t>(num_vertices) : num_vertices;
    }
    View Slot(size_t slot) const {
      const uint64_t begin = offsets[slot];
      return View{pivots + begin, dists + begin * dist_width,
                  static_cast<uint32_t>(offsets[slot + 1] - begin),
                  dist_width};
    }
    /// Per-vertex label views, mirroring TwoHopIndex::OutLabel/InLabel:
    /// undirected sets alias In(v) to Out(v).
    View Out(VertexId v) const { return Slot(v); }
    View In(VertexId v) const {
      return Slot(directed ? static_cast<size_t>(num_vertices) + v : v);
    }
  };

  /// An empty store: no slots, and the arenas' tail lanes alone.
  FlatLabelStore() { InitLayout({}); }

  /// Flattens per-vertex label vectors (what the baseline and external
  /// builders emit and the updater repairs) into the packed SoA arenas,
  /// through FromSlots.
  /// For undirected indexes pass an empty `in`. O(total entries) time.
  static FlatLabelStore Build(const std::vector<LabelVector>& out,
                              const std::vector<LabelVector>& in,
                              bool directed);

  /// The one freeze. Builds a store slot by slot: `sizes` holds every
  /// slot's entry count (out-labels of 0..n-1, then in-labels when
  /// directed), and fill(slot, size, pivots, dists) is called once per
  /// slot, in slot order, to write that slot's `size` (= sizes[slot])
  /// pivots into the arena and its distances into `dists`, a scratch
  /// array of u32 that the store then copies into its lanes. A fill that
  /// returns an error stops the build, and FromSlots returns that error.
  /// The offsets come from `sizes`, which the store then lets go, and
  /// the tail lanes are written before the first fill. The lanes start
  /// one byte wide; the first distance above kMaxNarrowDistance widens
  /// the lanes filled so far, once, to 4 bytes (the one moment both
  /// widths are held). O(total entries), one allocation per arena (two
  /// for the distances when they widen).
  template <typename Fill>
  static Result<FlatLabelStore> FromSlots(VertexId num_vertices,
                                          bool directed,
                                          std::vector<uint32_t> sizes,
                                          Fill&& fill) {
    FlatLabelStore store;
    store.directed_ = directed;
    store.num_vertices_ = num_vertices;
    HOPDB_CHECK_EQ(sizes.size(), store.num_slots());
    std::vector<Distance> dists(store.InitLayout(std::move(sizes)));
    for (size_t slot = 0; slot < store.num_slots(); ++slot) {
      const uint64_t begin = store.offsets_[slot];
      const auto size =
          static_cast<uint32_t>(store.offsets_[slot + 1] - begin);
      HOPDB_RETURN_NOT_OK(
          fill(slot, size, store.pivots_.data() + begin, dists.data()));
      store.PutDists(begin, size, dists.data());
    }
    return store;
  }

  VertexId num_vertices() const { return num_vertices_; }
  bool directed() const { return directed_; }
  /// Label entries, over every slot.
  uint64_t TotalEntries() const { return offsets_.back(); }
  /// Bytes a distance lane takes: 1 when every distance is at most
  /// kMaxNarrowDistance, else 4.
  uint32_t dist_width() const { return dist_width_; }

  /// Label views; v must be < num_vertices(). For undirected stores
  /// In(v) aliases Out(v), mirroring TwoHopIndex::InLabel.
  View Out(VertexId v) const { return Slot(v); }
  View In(VertexId v) const {
    return Slot(directed_ ? static_cast<size_t>(num_vertices_) + v : v);
  }

  /// In-memory footprint: both arenas (entries and tail) and the offset
  /// table, (4 + dist_width()) * (TotalEntries() + kLabelBlockEntries) +
  /// 8 * (slots + 1) bytes.
  uint64_t SizeBytes() const;

  /// The whole store as a LabelSetView (for engines that also accept
  /// mapped indexes). Valid until the store is destroyed or reassigned;
  /// a default-constructed store yields an empty view (its tail lanes
  /// alone).
  LabelSetView view() const {
    return LabelSetView{num_vertices_,   directed_,      dist_width_,
                        offsets_.data(), pivots_.data(), dists_.data()};
  }

 private:
  size_t num_slots() const {
    return directed_ ? 2 * static_cast<size_t>(num_vertices_)
                     : num_vertices_;
  }
  View Slot(size_t slot) const { return view().Slot(slot); }

  /// Sets offsets_ from per-slot counts and allocates both arenas with
  /// their all-ones tail lanes (entry lanes uninitialized; one-byte
  /// distance lanes). Returns the largest slot size.
  uint32_t InitLayout(std::vector<uint32_t> sizes);
  /// After fill wrote the `size` pivots of the slot at arena lane
  /// `begin` and put its distances in `dists`: widens the lanes if a
  /// distance needs it and copies the distances in.
  void PutDists(uint64_t begin, uint32_t size, const Distance* dists);
  /// Re-lays the first `lanes` one-byte distance lanes, and the tail, as
  /// 4-byte lanes in a new arena, sign-extended, and makes it the
  /// store's.
  void WidenDists(uint64_t lanes);

  bool directed_ = false;
  VertexId num_vertices_ = 0;
  uint32_t dist_width_ = 1;
  std::vector<uint64_t> offsets_ = {0};  // num_slots + 1 slot starts
  AlignedU32Array pivots_;  // TotalEntries() + kLabelBlockEntries lanes
  AlignedByteArray dists_;  // ... of dist_width_ bytes each
};

/// Namespace-level shorthand: the view type is used far from the store
/// (query engines, the server) where the qualified name is noise.
using LabelSetView = FlatLabelStore::LabelSetView;

/// Read-only view of one frozen label (TwoHopIndex::OutLabel/InLabel)
/// for code that walks labels entry by entry: size(), empty(),
/// operator[] and forward iteration, each entry yielded as a LabelEntry
/// value rebuilt from the two arenas (its distance widened to u32).
/// Same lifetime as the store slot it views. flat() gives the SoA view
/// the query kernels take.
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
    LabelEntry operator*() const {
      return {*pivot_, ReadDistLane(dist_, width_, 0)};
    }
    Iterator& operator++() {
      ++pivot_;
      dist_ += width_;
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
    Iterator(const FlatLabelStore::View& flat, uint32_t i)
        : pivot_(flat.pivots + i),
          dist_(flat.dists + uint64_t{i} * flat.dist_width),
          width_(flat.dist_width) {}

    const uint32_t* pivot_ = nullptr;
    const uint8_t* dist_ = nullptr;
    uint32_t width_ = 1;
  };

  explicit LabelView(FlatLabelStore::View flat) : flat_(flat) {}

  size_t size() const { return flat_.size; }
  bool empty() const { return flat_.size == 0; }
  LabelEntry operator[](size_t i) const {
    return {flat_.pivots[i], flat_.dist(i)};
  }
  Iterator begin() const { return Iterator(flat_, 0); }
  Iterator end() const { return Iterator(flat_, flat_.size); }
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
      fn(label.pivots[i], label.dist(i));
    }
  }
}

}  // namespace hopdb

#endif  // HOPDB_LABELING_FLAT_LABEL_STORE_H_
