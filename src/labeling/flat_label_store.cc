#include "labeling/flat_label_store.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace hopdb {

namespace {

constexpr char kMagic[4] = {'H', 'F', 'S', '1'};
constexpr uint8_t kFlagDirected = 1u << 0;
constexpr uint8_t kFlagDeltaPivots = 1u << 1;

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
  FlatLabelStore store;
  store.built_ = true;
  store.directed_ = directed;
  store.num_vertices_ = static_cast<VertexId>(out.size());
  if (directed) {
    HOPDB_CHECK_EQ(out.size(), in.size());
  } else {
    HOPDB_CHECK(in.empty()) << "undirected store must not carry in-labels";
  }

  std::vector<uint32_t> sizes;
  sizes.reserve(store.num_slots());
  for (const LabelVector& label : out) {
    sizes.push_back(static_cast<uint32_t>(label.size()));
  }
  if (directed) {
    for (const LabelVector& label : in) {
      sizes.push_back(static_cast<uint32_t>(label.size()));
    }
  }
  store.InitBlockedLayout(std::move(sizes));

  auto fill_side = [&](const std::vector<LabelVector>& side, size_t base) {
    for (size_t v = 0; v < side.size(); ++v) {
      uint64_t pos = store.offsets_[base + v];
      for (const LabelEntry& e : side[v]) {
        store.pivots_[pos] = e.pivot;
        store.dists_[pos] = e.dist;
        ++pos;
      }
    }
  };
  fill_side(out, 0);
  if (directed) fill_side(in, out.size());
  store.FinalizeBlocks();
  return store;
}

uint64_t FlatLabelStore::SizeBytes() const {
  return pivots_.SizeBytes() + dists_.SizeBytes() + block_min_.SizeBytes() +
         block_max_.SizeBytes() + offsets_.size() * sizeof(uint64_t) +
         sizes_.size() * sizeof(uint32_t);
}

bool FlatLabelStore::MirrorsVectors(const std::vector<LabelVector>& out,
                                    const std::vector<LabelVector>& in,
                                    bool directed) const {
  if (!built_ || directed != directed_ || out.size() != num_vertices_) {
    return false;
  }
  auto side_matches = [&](const std::vector<LabelVector>& side,
                          size_t base) {
    for (size_t v = 0; v < side.size(); ++v) {
      const uint64_t begin = offsets_[base + v];
      if (sizes_[base + v] != side[v].size()) return false;
      for (size_t i = 0; i < side[v].size(); ++i) {
        if (pivots_[begin + i] != side[v][i].pivot ||
            dists_[begin + i] != side[v][i].dist) {
          return false;
        }
      }
    }
    return true;
  };
  if (!side_matches(out, 0)) return false;
  if (directed_ && (in.size() != out.size() || !side_matches(in, out.size()))) {
    return false;
  }
  return true;
}

void FlatLabelStore::AppendTo(std::string* dst, bool delta_pivots) const {
  HOPDB_CHECK(built_) << "cannot serialize an unbuilt flat store";
  dst->append(kMagic, 4);
  uint8_t flags = 0;
  if (directed_) flags |= kFlagDirected;
  if (delta_pivots) flags |= kFlagDeltaPivots;
  PutU8(dst, flags);
  PutU32(dst, num_vertices_);
  PutU64(dst, TotalEntries());
  // The streams carry only real entries in slot order — byte-identical
  // to the pre-blocking format; padding never reaches disk.
  const size_t slots = num_slots();
  for (size_t s = 0; s < slots; ++s) PutVarint64(dst, sizes_[s]);
  if (delta_pivots) {
    for (size_t s = 0; s < slots; ++s) {
      uint64_t prev_plus_one = 0;  // pivot gaps relative to -1
      for (uint64_t i = offsets_[s]; i < offsets_[s] + sizes_[s]; ++i) {
        PutVarint64(dst, pivots_[i] + 1 - prev_plus_one);
        prev_plus_one = static_cast<uint64_t>(pivots_[i]) + 1;
      }
    }
    for (size_t s = 0; s < slots; ++s) {
      for (uint64_t i = offsets_[s]; i < offsets_[s] + sizes_[s]; ++i) {
        PutVarint64(dst, dists_[i]);
      }
    }
  } else {
    for (size_t s = 0; s < slots; ++s) {
      for (uint64_t i = offsets_[s]; i < offsets_[s] + sizes_[s]; ++i) {
        PutU32(dst, pivots_[i]);
      }
    }
    for (size_t s = 0; s < slots; ++s) {
      for (uint64_t i = offsets_[s]; i < offsets_[s] + sizes_[s]; ++i) {
        PutU32(dst, dists_[i]);
      }
    }
  }
}

Result<FlatLabelStore> FlatLabelStore::Parse(ByteReader* reader) {
  char magic[4];
  HOPDB_RETURN_NOT_OK(reader->ReadBytes(magic, 4));
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("not an HFS1 flat-label section");
  }
  uint8_t flags = 0;
  uint32_t nv = 0;
  uint64_t total = 0;
  HOPDB_RETURN_NOT_OK(reader->ReadU8(&flags));
  HOPDB_RETURN_NOT_OK(reader->ReadU32(&nv));
  HOPDB_RETURN_NOT_OK(reader->ReadU64(&total));

  FlatLabelStore store;
  store.built_ = true;
  store.directed_ = (flags & kFlagDirected) != 0;
  store.num_vertices_ = nv;
  const size_t slots = store.directed_ ? 2 * static_cast<size_t>(nv) : nv;
  // Each slot length is a varint of at least one byte: a slot count the
  // section cannot hold is corrupt, and must not size an allocation.
  if (slots > reader->remaining()) {
    return Status::InvalidArgument("HFS1 slot count exceeds section size");
  }
  std::vector<uint32_t> sizes(slots, 0);
  uint64_t running = 0;
  for (size_t s = 0; s < slots; ++s) {
    uint64_t len = 0;
    HOPDB_RETURN_NOT_OK(reader->ReadVarint64(&len));
    if (len > nv) {
      return Status::InvalidArgument("HFS1 slot length exceeds num_vertices");
    }
    running += len;
    sizes[s] = static_cast<uint32_t>(len);
  }
  if (running != total) {
    return Status::InvalidArgument(
        "HFS1 slot lengths disagree with total_entries");
  }
  // Likewise for the entries: at least two varint bytes each (pivot gap
  // and distance), eight in raw mode.
  const uint64_t min_entry_bytes = (flags & kFlagDeltaPivots) != 0 ? 2 : 8;
  if (total > reader->remaining() / min_entry_bytes) {
    return Status::InvalidArgument("HFS1 total_entries exceeds section size");
  }
  store.InitBlockedLayout(std::move(sizes));
  if ((flags & kFlagDeltaPivots) != 0) {
    for (size_t s = 0; s < slots; ++s) {
      uint64_t prev_plus_one = 0;
      const uint64_t begin = store.offsets_[s];
      for (uint64_t i = begin; i < begin + store.sizes_[s]; ++i) {
        uint64_t gap = 0;
        HOPDB_RETURN_NOT_OK(reader->ReadVarint64(&gap));
        const uint64_t pivot = prev_plus_one + gap - 1;
        if (gap == 0 || pivot >= nv) {
          return Status::InvalidArgument("HFS1 pivot gap out of range");
        }
        store.pivots_[i] = static_cast<uint32_t>(pivot);
        prev_plus_one = pivot + 1;
      }
    }
    for (size_t s = 0; s < slots; ++s) {
      const uint64_t begin = store.offsets_[s];
      for (uint64_t i = begin; i < begin + store.sizes_[s]; ++i) {
        uint64_t d = 0;
        HOPDB_RETURN_NOT_OK(reader->ReadVarint64(&d));
        if (d > kInfDistance) {
          return Status::InvalidArgument("HFS1 distance out of range");
        }
        store.dists_[i] = static_cast<uint32_t>(d);
      }
    }
  } else {
    // Raw mode: enforce the same invariants the gap encoding gets for
    // free — strictly ascending pivots per slot, pivot < num_vertices —
    // so a malformed file cannot produce a store that silently violates
    // the binary-search/merge-join preconditions.
    for (size_t s = 0; s < slots; ++s) {
      uint64_t prev_plus_one = 0;
      const uint64_t begin = store.offsets_[s];
      for (uint64_t i = begin; i < begin + store.sizes_[s]; ++i) {
        HOPDB_RETURN_NOT_OK(reader->ReadU32(&store.pivots_[i]));
        if (store.pivots_[i] < prev_plus_one || store.pivots_[i] >= nv) {
          return Status::InvalidArgument("HFS1 raw pivot out of order or "
                                         "out of range");
        }
        prev_plus_one = static_cast<uint64_t>(store.pivots_[i]) + 1;
      }
    }
    for (size_t s = 0; s < slots; ++s) {
      const uint64_t begin = store.offsets_[s];
      for (uint64_t i = begin; i < begin + store.sizes_[s]; ++i) {
        HOPDB_RETURN_NOT_OK(reader->ReadU32(&store.dists_[i]));
      }
    }
  }
  store.FinalizeBlocks();
  return store;
}

Status FlatLabelStore::Save(const std::string& path, bool delta_pivots) const {
  std::string buf;
  AppendTo(&buf, delta_pivots);
  PutU64(&buf, Fnv1a64(buf.data(), buf.size()));
  return WriteStringToFile(path, buf);
}

Result<FlatLabelStore> FlatLabelStore::Load(const std::string& path) {
  std::string data;
  HOPDB_RETURN_NOT_OK(ReadFileToString(path, &data));
  if (data.size() < 8) {
    return Status::InvalidArgument("truncated flat-label file: " + path);
  }
  const size_t body = data.size() - 8;
  const uint64_t want = DecodeU64(
      reinterpret_cast<const uint8_t*>(data.data()) + body);
  if (Fnv1a64(data.data(), body) != want) {
    return Status::InvalidArgument("flat-label checksum mismatch: " + path);
  }
  ByteReader reader(reinterpret_cast<const uint8_t*>(data.data()), body);
  HOPDB_ASSIGN_OR_RETURN(FlatLabelStore store, Parse(&reader));
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in flat-label file: " +
                                   path);
  }
  return store;
}

}  // namespace hopdb
