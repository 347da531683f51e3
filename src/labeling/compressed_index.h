// CompressedIndex: a delta-varint-compressed, directly-queryable 2-hop
// label index.
//
// The paper accounts index size as 32-bit pivot + 8-bit distance per entry
// (Table 6). This format goes further while staying queryable without a
// decompression pass: within each label vector (already sorted by pivot)
// pivots are delta-encoded and distances stored raw, both as LEB128
// varints. Scale-free labels compress well under this scheme: pivots
// concentrate on the highest ranks (Table 7's coverage results), so deltas
// are small, and unweighted distances rarely exceed the diameter.
//
// Layout (little-endian, "HLC1"):
//   magic u32 | flags u8 (bit0 directed) | num_vertices u32 |
//   offsets u32 x (num_labels + 1) | payload bytes |
//   fnv1a-64 checksum u64 (over everything preceding)
// where num_labels = 2 * |V| for directed indexes (all out-labels first,
// then all in-labels) and |V| otherwise. Each label's payload is
// (varint pivot-delta, varint dist)* with the first delta relative to -1.
//
// Queries decode the two label vectors lazily inside one scalar
// sorted-merge intersection (Query, compressed_index.cc); no per-query
// allocation and no query-kernel dispatch. Only compressed_index.cc
// decodes the payload.

#ifndef HOPDB_LABELING_COMPRESSED_INDEX_H_
#define HOPDB_LABELING_COMPRESSED_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"
#include "labeling/two_hop_index.h"
#include "util/status.h"

namespace hopdb {

class CompressedIndex {
 public:
  CompressedIndex() = default;

  /// Compresses a plain index — O(total entries) encode, one pass, no
  /// mutation of the input. Fails with InvalidArgument on empty
  /// (default-constructed) input and ResourceExhausted when the encoded
  /// payload would overflow the u32 offset table (> 4 GiB).
  static Result<CompressedIndex> FromIndex(const TwoHopIndex& index);

  /// Expands back to a plain TwoHopIndex, decoding each label straight
  /// into its frozen label store. Exact round trip:
  /// Decompress(FromIndex(x)) equals x entry-for-entry. O(total entries)
  /// time and full heap footprint — use this to hand labels to code
  /// that needs the uncompressed representation, not on the serving
  /// path.
  Result<TwoHopIndex> Decompress() const;

  /// Exact distance query over the compressed form; kInfDistance when
  /// unreachable. Identical results to TwoHopIndex::Query on the
  /// source index. O(|Lout(s)| + |Lin(t)|) varint decodes inside one
  /// scalar sorted-merge intersection that also folds in the trivial
  /// pivots as their entries pass; no per-query allocation and no
  /// kernel dispatch (ActiveQueryKernel does not apply). Ids >=
  /// num_vertices() answer kInfDistance (internal/ranked ids, like
  /// TwoHopIndex).
  ///
  /// Thread safety: const end-to-end (varint decode into locals, no
  /// mutable/static state) — safe for concurrent readers.
  Distance Query(VertexId s, VertexId t) const;

  VertexId num_vertices() const { return num_vertices_; }
  bool directed() const { return directed_; }

  /// Total compressed footprint: payload + offset table + header —
  /// also the serialized file size minus the trailing checksum.
  uint64_t SizeBytes() const;

  /// Writes the HLC1 file image (header + offsets + payload +
  /// fnv1a-64 checksum; byte-exact spec in docs/FORMATS.md). Const and
  /// safe to call while other threads query.
  Status Save(const std::string& path) const;
  /// Verifies the checksum, magic and offsets before accepting any byte
  /// (those failures are IOError), then decodes every label once and
  /// fails with InvalidArgument unless each is whole (pivot gap,
  /// distance) varint pairs ending exactly at its end offset, with
  /// strictly increasing pivots < |V|, no trivial self entry, and
  /// distances in [1, kInfDistance). HopDbIndex::Load dispatches here
  /// automatically on the "HLC1" magic.
  static Result<CompressedIndex> Load(const std::string& path);

 private:
  /// Label slot of vertex v: out labels occupy [0, n), in labels (directed
  /// only) occupy [n, 2n).
  size_t SlotOut(VertexId v) const { return v; }
  size_t SlotIn(VertexId v) const {
    return directed_ ? num_vertices_ + v : v;
  }

  bool directed_ = false;
  VertexId num_vertices_ = 0;
  std::vector<uint32_t> offsets_;  // byte offsets into payload_
  std::string payload_;
};

}  // namespace hopdb

#endif  // HOPDB_LABELING_COMPRESSED_INDEX_H_
