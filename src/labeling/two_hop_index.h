// TwoHopIndex: the queryable 2-hop label index. Produced by the HopDb
// builders (in-memory and external) and by the PLL / IS-Label baselines;
// all of them answer queries through this class's Query — same storage
// layout, same active query kernel — so Table 6's "memory query time"
// comparisons measure label quality, not implementation differences.
//
// The labels live in two forms with one rule between them:
//   - per-vertex LabelVectors (array-of-structs): the form every builder
//     emits, IncrementalUpdater repairs, and HLI1 stores;
//   - a frozen FlatLabelStore (structure-of-arrays, cache-line-aligned
//     arenas): the form every query reads — Query, labels(), and through
//     labels() the batch/KNN engines, the hot-hub table and the serving
//     snapshot.
// The store is frozen from the vectors at construction, at Load, and at
// IncrementalUpdater::Finalize() — the only code that edits the vectors
// in place. Reads see the labels as of the last freeze.

#ifndef HOPDB_LABELING_TWO_HOP_INDEX_H_
#define HOPDB_LABELING_TWO_HOP_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "labeling/flat_label_store.h"
#include "labeling/label_entry.h"
#include "util/status.h"

namespace hopdb {

class TwoHopIndex {
 public:
  TwoHopIndex() = default;

  /// Takes ownership of the label vectors and freezes the store from
  /// them (O(total entries)). For undirected indexes pass an empty `in`
  /// (queries then intersect out[s] with out[t]).
  /// Trivial (v, 0) self-entries must NOT be stored; Query handles them
  /// implicitly (the paper's tables count non-trivial entries the same
  /// way).
  TwoHopIndex(std::vector<LabelVector> out, std::vector<LabelVector> in,
              bool directed);

  VertexId num_vertices() const {
    return static_cast<VertexId>(out_.size());
  }
  bool directed() const { return directed_; }

  /// Label views over the vectors (the editable form: between an
  /// IncrementalUpdater's Apply and Finalize they run ahead of the
  /// frozen store). O(1).
  std::span<const LabelEntry> OutLabel(VertexId v) const { return out_[v]; }
  std::span<const LabelEntry> InLabel(VertexId v) const {
    return directed_ ? std::span<const LabelEntry>(in_[v])
                     : std::span<const LabelEntry>(out_[v]);
  }

  /// The frozen label store (INTERNAL ids), as MappedIndex::labels()
  /// exposes a mapped one. Valid until the index is destroyed, assigned,
  /// or re-frozen by IncrementalUpdater::Finalize().
  LabelSetView labels() const { return flat_.view(); }

  /// Exact distance from s to t (both internal/ranked ids);
  /// kInfDistance when unreachable. O(|Lout(s)| + |Lin(t)|) via the
  /// active SIMD query kernel over the frozen store.
  ///
  /// Thread safety: const and stateless — a pure intersection over the
  /// immutable arenas, so concurrent readers need no synchronization
  /// (PLL-style shared-reader serving). Not safe against a concurrent
  /// IncrementalUpdater::Finalize().
  Distance Query(VertexId s, VertexId t) const;

  /// Number of non-trivial label entries. O(|V|).
  uint64_t TotalEntries() const;

  /// Average non-trivial entries per vertex; for directed graphs counts
  /// Lin and Lout together (the paper's "Avg |label| per vertex").
  double AvgLabelSize() const;

  /// In-memory footprint in bytes: label vectors plus the frozen store.
  uint64_t SizeBytes() const;

  /// Size under the paper's disk accounting: 32-bit pivot + 8-bit
  /// distance per entry plus a 64-bit offset per label vector — what the
  /// "Index size (MB)" column of Table 6 reports.
  uint64_t PaperSizeBytes() const;

  /// entries_per_pivot[p] = number of non-trivial entries whose pivot is
  /// p. Drives Table 7 / Figure 8 (label coverage by top-ranked pivots).
  /// O(total entries).
  std::vector<uint64_t> EntriesPerPivot() const;

  /// Structural invariants: labels sorted by pivot, no duplicate pivots,
  /// every pivot < |V|, no trivial self-entries, finite distances. When
  /// `ranked` is true (HopDb/PLL indexes on rank-relabeled graphs)
  /// additionally checks pivot id < owner id.
  Status Validate(bool ranked) const;

  /// Serializes the label vectors to the HLI1 binary format: the label
  /// body followed by a u64 FNV-1a-64 checksum of it (docs/FORMATS.md).
  /// Load verifies the checksum, rejects any byte past it, checks the
  /// side shapes and Validate(false) — every failure is InvalidArgument
  /// — and then freezes the store. Files written by earlier builds (with
  /// a trailing HFS1 section, or none) fail the checksum and must be
  /// rebuilt.
  Status Save(const std::string& path) const;
  static Result<TwoHopIndex> Load(const std::string& path);

 private:
  friend class IncrementalUpdater;

  /// Re-freezes the store from the vectors. O(total entries); frees the
  /// arenas every previously returned labels() view points into.
  void Freeze() { flat_ = FlatLabelStore::Build(out_, in_, directed_); }

  std::vector<LabelVector> out_;
  std::vector<LabelVector> in_;  // empty when undirected
  FlatLabelStore flat_;          // frozen from out_/in_; what queries read
  bool directed_ = false;
};

/// Query helper shared with builders' pruning logic: minimum of
/// intersection plus the two implicit trivial pivots.
///   dist = min( min_{w in out_s ∩ in_t} d1+d2,
///               dist stored for pivot t in out_s,
///               dist stored for pivot s in in_t,
///               0 if s == t )
/// The intersection routes through the active query kernel
/// (labeling/query_kernel.h); results are identical for every kernel.
Distance QueryLabelHalves(std::span<const LabelEntry> out_s,
                          std::span<const LabelEntry> in_t, VertexId s,
                          VertexId t);

}  // namespace hopdb

#endif  // HOPDB_LABELING_TWO_HOP_INDEX_H_
