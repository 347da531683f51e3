// TwoHopIndex: the queryable 2-hop label index. Produced by the HopDb
// builders (in-memory and external) and by the PLL / IS-Label baselines;
// all of them answer queries through this class's Query — same storage
// layout, same active query kernel — so Table 6's "memory query time"
// comparisons measure label quality, not implementation differences.
//
// The index holds its labels in one form: a frozen FlatLabelStore
// (structure-of-arrays, cache-line-aligned packed arenas). Every read
// goes through it — Query, labels() (and through labels() the batch/KNN
// engines, the hot-hub table and the serving snapshot), and the
// OutLabel/InLabel views, which yield LabelEntry values for code that
// walks a label entry by entry. Labels live outside the store only
// while they are built or repaired: the in-memory builder freezes its
// label arenas through FlatLabelStore::FromSlots, the other producers
// hand per-vertex label vectors to the vector constructor, which
// freezes them into the store and lets them go, and IncrementalUpdater
// thaws its own editable copy, freezing it back at Finalize(). Save writes
// the store's entries as varints (HLI1 never sees the arenas' tail
// lanes) and the caller's rank permutation, and Load decodes both back,
// the labels straight into the arenas.

#ifndef HOPDB_LABELING_TWO_HOP_INDEX_H_
#define HOPDB_LABELING_TWO_HOP_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "labeling/flat_label_store.h"
#include "labeling/label_entry.h"
#include "util/status.h"

namespace hopdb {

struct RankMapping;

class TwoHopIndex {
 public:
  TwoHopIndex() = default;

  /// Freezes the label vectors into the store and lets them go
  /// (O(total entries)). For undirected indexes pass an empty `in`
  /// (queries then intersect out[s] with out[t]).
  /// Trivial (v, 0) self-entries must NOT be stored; Query handles them
  /// implicitly (the paper's tables count non-trivial entries the same
  /// way).
  TwoHopIndex(std::vector<LabelVector> out, std::vector<LabelVector> in,
              bool directed);

  /// Adopts an already frozen store.
  explicit TwoHopIndex(FlatLabelStore store) : flat_(std::move(store)) {}

  VertexId num_vertices() const { return flat_.num_vertices(); }
  bool directed() const { return flat_.directed(); }

  /// Read-only views of one label in the store; InLabel aliases
  /// OutLabel on undirected indexes. O(1); valid while the store is.
  LabelView OutLabel(VertexId v) const { return LabelView(flat_.Out(v)); }
  LabelView InLabel(VertexId v) const { return LabelView(flat_.In(v)); }

  /// The frozen label store (INTERNAL ids), as MappedIndex::labels()
  /// exposes a mapped one. Valid until the index is destroyed or
  /// assigned (IncrementalUpdater::Finalize() assigns a new store).
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

  /// Number of non-trivial label entries. O(1).
  uint64_t TotalEntries() const { return flat_.TotalEntries(); }

  /// Average non-trivial entries per vertex; for directed graphs counts
  /// Lin and Lout together (the paper's "Avg |label| per vertex").
  double AvgLabelSize() const;

  /// In-memory footprint in bytes: the frozen store's arenas and offset
  /// table.
  uint64_t SizeBytes() const { return flat_.SizeBytes(); }

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

  /// Serializes to HLI1 (docs/FORMATS.md): a header, every label's
  /// length as a varint, every entry as a (pivot gap, distance) varint
  /// pair (no tail lanes), the rank section (`ranking.rank_to_orig`,
  /// which must cover |V| ids), then a u64 FNV-1a-64 checksum of it all.
  /// The varints are canonical, so an index has one file. Save streams
  /// the file through one fixed 1 MiB window into a temporary file beside
  /// `path`, fsyncs it and renames it over `path`, then fsyncs the
  /// directory: a reader sees the old file or the new one, and a failed
  /// save (IOError) leaves the old one and no temporary file. A label
  /// that is not strictly sorted cannot be encoded (InvalidArgument).
  /// Removes a `<path>.perm` sidecar an earlier build left beside it.
  ///
  /// Load reads the file through one fixed 1 MiB window, never whole,
  /// so it holds the store it builds and little else. Pass 1 reads the
  /// header and the lengths section only: the slot count and then the
  /// length sum are checked against the bytes they need (1 per length,
  /// 2 per entry at least) before they size the store's slots. Pass 2
  /// re-reads the body, hashes every byte, checks that the header and
  /// lengths hash as in pass 1, and decodes each label straight into its
  /// slot, refusing a varint that is not canonical or runs past the
  /// entry section, a pivot gap that reaches |V|, a self entry and a
  /// distance of 0 or infinity (so every store it returns passes
  /// Validate(false)); the entries must end where the 4|V| rank bytes
  /// begin. Errors come in this order: the checksum (a file that fails
  /// it reports that whatever else is wrong), then the shape (pass 1),
  /// then the entries (pass 2), then the ranks, which must be a
  /// permutation before they become `*ranking`.
  /// A path that is not a regular file fails with IOError; every other
  /// failure is InvalidArgument. Files written by earlier builds (the
  /// fixed-width layout, with or without a rank section, or an HFS1
  /// section) are refused with a message to rebuild them.
  Status Save(const std::string& path, const RankMapping& ranking) const;
  static Result<TwoHopIndex> Load(const std::string& path,
                                  RankMapping* ranking);

 private:
  FlatLabelStore flat_;
};

/// The one merge over LabelEntry spans — PLL's pruned searches, the
/// disk index and IncrementalUpdater's live labels: minimum of the
/// intersection plus the two implicit trivial pivots.
///   dist = min( min_{w in out_s ∩ in_t} d1+d2,
///               dist stored for pivot t in out_s,
///               dist stored for pivot s in in_t,
///               0 if s == t )
/// The intersection is IntersectLabels' scalar two-pointer merge
/// (label_entry.h); the active query kernel does not apply.
Distance QueryLabelHalves(std::span<const LabelEntry> out_s,
                          std::span<const LabelEntry> in_t, VertexId s,
                          VertexId t);

}  // namespace hopdb

#endif  // HOPDB_LABELING_TWO_HOP_INDEX_H_
