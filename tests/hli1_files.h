// Hand-made HLI1 files for the loader tests: the pieces of the compact
// layout (docs/FORMATS.md), and files in the fixed-width layout of
// earlier builds, which every load must refuse with a message that says
// to rebuild them.

#ifndef HOPDB_TESTS_HLI1_FILES_H_
#define HOPDB_TESTS_HLI1_FILES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "labeling/two_hop_index.h"
#include "util/serde.h"

namespace hopdb {

/// Appends v as the shortest LEB128 varint, the one encoding HLI1 takes.
inline void PutVarint(std::string* out, uint32_t v) {
  uint8_t bytes[kMaxVarint32Bytes];
  out->append(reinterpret_cast<const char*>(bytes), EncodeVarint32(v, bytes));
}

/// `body` followed by its FNV-1a-64, as HLI1 files end.
inline std::string Sealed(std::string body) {
  PutU64(&body, Fnv1a64(body.data(), body.size()));
  return body;
}

/// `index` sealed in the fixed-width HLI1 layout earlier builds wrote:
/// u32 directed, u32 |V|, then per side a u64 label count and per label
/// a u64 length and its (u32 pivot, u32 dist) entries, then `ranks` as
/// u32 ids (the rank section; builds before it had none, so pass
/// nullptr for their files).
inline std::string FixedWidthHli1(const TwoHopIndex& index,
                                  const std::vector<VertexId>* ranks) {
  std::string file = "HLI1";
  PutU32(&file, index.directed() ? 1 : 0);
  PutU32(&file, index.num_vertices());
  for (const bool in_side : {false, true}) {
    const VertexId count =
        in_side && !index.directed() ? 0 : index.num_vertices();
    PutU64(&file, count);
    for (VertexId v = 0; v < count; ++v) {
      const LabelView label = in_side ? index.InLabel(v) : index.OutLabel(v);
      PutU64(&file, label.size());
      for (const LabelEntry& e : label) {
        PutU32(&file, e.pivot);
        PutU32(&file, e.dist);
      }
    }
  }
  if (ranks != nullptr) {
    for (const VertexId v : *ranks) PutU32(&file, v);
  }
  return Sealed(std::move(file));
}

}  // namespace hopdb

#endif  // HOPDB_TESTS_HLI1_FILES_H_
