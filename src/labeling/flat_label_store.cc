#include "labeling/flat_label_store.h"

#include <algorithm>
#include <cstring>
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

uint32_t FlatLabelStore::InitBlockedLayout(std::vector<uint32_t> sizes) {
  sizes_ = std::move(sizes);
  const size_t slots = sizes_.size();
  offsets_.assign(slots + 1, 0);
  uint64_t total = 0;
  uint64_t padded = 0;
  uint32_t largest = 0;
  for (size_t s = 0; s < slots; ++s) {
    total += sizes_[s];
    padded += AlignUpBlock(sizes_[s]);
    offsets_[s + 1] = padded;
    largest = std::max(largest, sizes_[s]);
  }
  total_entries_ = total;
  pivots_ = AlignedU32Array(padded);
  dist_width_ = 1;
  dists_ = AlignedByteArray(padded);
  block_min_ = AlignedU32Array(padded / kLabelBlockEntries);
  block_max_ = AlignedU32Array(padded / kLabelBlockEntries);
  return largest;
}

void FlatLabelStore::WidenDists(uint64_t lanes) {
  AlignedByteArray wide(4 * dists_.size());
  for (uint64_t i = 0; i < lanes; ++i) {
    const Distance dist = ReadDistLane(dists_.data(), 1, i);
    std::memcpy(wide.data() + 4 * i, &dist, sizeof(dist));
  }
  dists_ = std::move(wide);
  dist_width_ = 4;
}

void FlatLabelStore::SealSlot(size_t slot, const Distance* dists) {
  const uint64_t begin = offsets_[slot];
  const uint64_t lanes = offsets_[slot + 1] - begin;
  const uint32_t size = sizes_[slot];
  if (lanes == 0) return;  // an empty slot: no lanes, no blocks
  if (dist_width_ == 1 &&
      std::any_of(dists, dists + size,
                  [](Distance d) { return d > kMaxNarrowDistance; })) {
    WidenDists(begin);
  }
  uint8_t* lane = dists_.data() + begin * dist_width_;
  if (dist_width_ == 1) {
    for (uint32_t i = 0; i < size; ++i) {
      lane[i] = static_cast<uint8_t>(dists[i]);
    }
  } else {
    std::memcpy(lane, dists, size * sizeof(Distance));
  }
  // Padding: all-ones pivots and distance lanes.
  std::fill(pivots_.data() + begin + size, pivots_.data() + begin + lanes,
            kInvalidVertex);
  std::memset(lane + size * dist_width_, 0xFF, (lanes - size) * dist_width_);
  // Every block holds at least one real entry (padding only rounds a
  // non-empty slot up), so the sidecar minima/maxima are always real
  // pivots.
  for (uint64_t g = 0; g < lanes / kLabelBlockEntries; ++g) {
    const uint64_t first = begin + g * kLabelBlockEntries;
    const uint64_t last =
        begin + std::min<uint64_t>(size, (g + 1) * kLabelBlockEntries) - 1;
    block_min_[first / kLabelBlockEntries] = pivots_[first];
    block_max_[first / kLabelBlockEntries] = pivots_[last];
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
                  Distance* dists) {
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
