#include "labeling/flat_label_store.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace hopdb {

uint32_t FlatLabelStore::InitLayout(std::vector<uint32_t> sizes) {
  offsets_.assign(sizes.size() + 1, 0);
  uint32_t largest = 0;
  for (size_t s = 0; s < sizes.size(); ++s) {
    offsets_[s + 1] = offsets_[s] + sizes[s];
    largest = std::max(largest, sizes[s]);
  }
  const uint64_t total = offsets_.back();
  pivots_ = AlignedU32Array(total + kLabelBlockEntries);
  std::fill(pivots_.data() + total, pivots_.data() + pivots_.size(),
            kInvalidVertex);
  dist_width_ = 1;
  dists_ = AlignedByteArray(total + kLabelBlockEntries);
  std::memset(dists_.data() + total, 0xFF, kLabelBlockEntries);
  return largest;
}

void FlatLabelStore::WidenDists(uint64_t lanes) {
  AlignedByteArray wide(4 * dists_.size());
  for (uint64_t i = 0; i < lanes; ++i) {
    const Distance dist = ReadDistLane(dists_.data(), 1, i);
    std::memcpy(wide.data() + 4 * i, &dist, sizeof(dist));
  }
  std::memset(wide.data() + 4 * TotalEntries(), 0xFF,
              4 * kLabelBlockEntries);
  dists_ = std::move(wide);
  dist_width_ = 4;
}

void FlatLabelStore::PutDists(uint64_t begin, uint32_t size,
                              const Distance* dists) {
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
  return pivots_.SizeBytes() + dists_.SizeBytes() +
         offsets_.size() * sizeof(uint64_t);
}

}  // namespace hopdb
