#include "labeling/flat_label_store.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace hopdb {

namespace {

uint64_t AlignUpBlock(uint64_t entries) {
  return (entries + kLabelBlockEntries - 1) / kLabelBlockEntries *
         kLabelBlockEntries;
}

}  // namespace

void FlatLabelStore::InitBlockedLayout(std::vector<uint32_t> sizes) {
  sizes_ = std::move(sizes);
  const size_t slots = sizes_.size();
  offsets_.assign(slots + 1, 0);
  uint64_t total = 0;
  uint64_t padded = 0;
  for (size_t s = 0; s < slots; ++s) {
    total += sizes_[s];
    padded += AlignUpBlock(sizes_[s]);
    offsets_[s + 1] = padded;
  }
  total_entries_ = total;
  pivots_ = AlignedU32Array(padded);
  dists_ = AlignedU32Array(padded);
}

void FlatLabelStore::FinalizeBlocks() {
  const size_t slots = num_slots();
  block_min_ = AlignedU32Array(pivots_.size() / kLabelBlockEntries);
  block_max_ = AlignedU32Array(pivots_.size() / kLabelBlockEntries);
  for (size_t s = 0; s < slots; ++s) {
    const uint64_t begin = offsets_[s];
    const uint32_t size = sizes_[s];
    for (uint64_t i = begin + size; i < offsets_[s + 1]; ++i) {
      pivots_[i] = kInvalidVertex;
      dists_[i] = kInfDistance;
    }
    // Every block holds at least one real entry (padding only rounds a
    // non-empty slot up), so the sidecar minima/maxima are always real
    // pivots.
    const uint64_t blocks = (offsets_[s + 1] - begin) / kLabelBlockEntries;
    for (uint64_t g = 0; g < blocks; ++g) {
      const uint64_t first = begin + g * kLabelBlockEntries;
      const uint64_t last =
          begin + std::min<uint64_t>(size, (g + 1) * kLabelBlockEntries) - 1;
      block_min_[first / kLabelBlockEntries] = pivots_[first];
      block_max_[first / kLabelBlockEntries] = pivots_[last];
    }
  }
}

FlatLabelStore FlatLabelStore::Build(const std::vector<LabelVector>& out,
                                     const std::vector<LabelVector>& in,
                                     bool directed) {
  if (directed) {
    HOPDB_CHECK_EQ(out.size(), in.size());
  } else {
    HOPDB_CHECK(in.empty()) << "undirected store must not carry in-labels";
  }
  std::vector<uint32_t> sizes;
  sizes.reserve(out.size() + in.size());
  for (const LabelVector& label : out) {
    sizes.push_back(static_cast<uint32_t>(label.size()));
  }
  for (const LabelVector& label : in) {
    sizes.push_back(static_cast<uint32_t>(label.size()));
  }
  auto fill = [&](size_t slot, uint32_t size, uint32_t* pivots,
                  uint32_t* dists) {
    const LabelVector& label =
        slot < out.size() ? out[slot] : in[slot - out.size()];
    for (uint32_t i = 0; i < size; ++i) {
      pivots[i] = label[i].pivot;
      dists[i] = label[i].dist;
    }
    return Status::OK();
  };
  return FromSlots(static_cast<VertexId>(out.size()), directed,
                   std::move(sizes), fill)
      .ValueOrDie();
}

uint64_t FlatLabelStore::SizeBytes() const {
  return pivots_.SizeBytes() + dists_.SizeBytes() + block_min_.SizeBytes() +
         block_max_.SizeBytes() + offsets_.size() * sizeof(uint64_t) +
         sizes_.size() * sizeof(uint32_t);
}

}  // namespace hopdb
