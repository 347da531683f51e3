#include "labeling/compressed_index.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/serde.h"

namespace hopdb {

namespace {

constexpr uint32_t kMagic = 0x31434c48;  // "HLC1" little-endian

/// Streaming decoder over one compressed label: yields (pivot, dist) pairs
/// in increasing pivot order.
class LabelCursor {
 public:
  LabelCursor(const uint8_t* payload, size_t begin, size_t end)
      : payload_(payload), pos_(begin), end_(end) {}

  /// Advances to the next entry; false at end. The payload came from
  /// the encoder or passed Load's label checks, so every label decodes
  /// to whole entries with strictly increasing pivots.
  bool Next(VertexId* pivot, Distance* dist) {
    if (pos_ >= end_) return false;
    uint64_t delta = 0, d = 0;
    if (!GetVarint64(payload_, end_, &pos_, &delta)) return false;
    if (!GetVarint64(payload_, end_, &pos_, &d)) return false;
    prev_ += delta;  // first delta is prev_(-1 start) + delta
    *pivot = static_cast<VertexId>(prev_ - 1);
    *dist = static_cast<Distance>(d);
    return true;
  }

 private:
  const uint8_t* payload_;
  size_t pos_;
  size_t end_;
  /// 1 + previous pivot, so the first entry's delta is pivot + 1 (delta 0
  /// never occurs: pivots strictly increase).
  uint64_t prev_ = 0;
};

/// Load's label checks: every label decodes to whole (pivot gap,
/// distance) varint pairs ending at its end offset, with strictly
/// increasing pivots < |V|, no trivial self entry and distances in
/// [1, kInfDistance). `offsets` is already known to be monotone and to
/// end at the payload size. O(payload bytes).
Status CheckLabels(const std::string& payload_bytes,
                   const std::vector<uint32_t>& offsets,
                   VertexId num_vertices) {
  const auto* payload = reinterpret_cast<const uint8_t*>(payload_bytes.data());
  for (size_t slot = 0; slot + 1 < offsets.size(); ++slot) {
    const VertexId owner = static_cast<VertexId>(
        slot < num_vertices ? slot : slot - num_vertices);
    const auto fail = [&](const char* what) {
      return Status::InvalidArgument("label slot " + std::to_string(slot) +
                                     " " + what);
    };
    size_t pos = offsets[slot];
    const size_t end = offsets[slot + 1];
    uint64_t next_key = 0;  // 1 + the previous pivot, as the encoder keeps it
    while (pos < end) {
      uint64_t delta = 0, dist = 0;
      if (!GetVarint64(payload, end, &pos, &delta) ||
          !GetVarint64(payload, end, &pos, &dist)) {
        return fail("does not decode to whole entries");
      }
      // next_key <= |V| holds throughout, so this cannot overflow.
      if (delta == 0 || delta > num_vertices - next_key) {
        return fail("has a pivot out of order or out of range");
      }
      next_key += delta;
      if (next_key - 1 == owner) return fail("stores a trivial self entry");
      if (dist == 0 || dist >= kInfDistance) {
        return fail("has a bad distance");
      }
    }
  }
  return Status::OK();
}

void EncodeLabel(const LabelView& label, std::string* payload) {
  uint64_t prev = 0;
  for (const LabelEntry& e : label) {
    const uint64_t key = static_cast<uint64_t>(e.pivot) + 1;
    PutVarint64(payload, key - prev);
    PutVarint64(payload, e.dist);
    prev = key;
  }
}

}  // namespace

Result<CompressedIndex> CompressedIndex::FromIndex(const TwoHopIndex& index) {
  if (index.num_vertices() == 0) {
    return Status::InvalidArgument("cannot compress an empty index");
  }
  CompressedIndex out;
  out.directed_ = index.directed();
  out.num_vertices_ = index.num_vertices();
  const size_t num_labels =
      out.directed_ ? 2 * static_cast<size_t>(out.num_vertices_)
                    : out.num_vertices_;
  out.offsets_.reserve(num_labels + 1);
  out.offsets_.push_back(0);
  for (VertexId v = 0; v < out.num_vertices_; ++v) {
    EncodeLabel(index.OutLabel(v), &out.payload_);
    if (out.payload_.size() > UINT32_MAX) {
      return Status::ResourceExhausted("compressed payload exceeds 4 GiB");
    }
    out.offsets_.push_back(static_cast<uint32_t>(out.payload_.size()));
  }
  if (out.directed_) {
    for (VertexId v = 0; v < out.num_vertices_; ++v) {
      EncodeLabel(index.InLabel(v), &out.payload_);
      if (out.payload_.size() > UINT32_MAX) {
        return Status::ResourceExhausted("compressed payload exceeds 4 GiB");
      }
      out.offsets_.push_back(static_cast<uint32_t>(out.payload_.size()));
    }
  }
  return out;
}

Result<TwoHopIndex> CompressedIndex::Decompress() const {
  // HLC1 slots are the store's slots (out-labels, then in-labels when
  // directed), so each label decodes straight into its slot: a counting
  // pass sizes the slots, then a second pass fills them.
  const auto* payload = reinterpret_cast<const uint8_t*>(payload_.data());
  VertexId pivot = 0;
  Distance dist = 0;
  std::vector<uint32_t> sizes(
      directed_ ? 2 * static_cast<size_t>(num_vertices_) : num_vertices_, 0);
  for (size_t slot = 0; slot < sizes.size(); ++slot) {
    LabelCursor cursor(payload, offsets_[slot], offsets_[slot + 1]);
    while (cursor.Next(&pivot, &dist)) ++sizes[slot];
  }
  return TwoHopIndex(FlatLabelStore::FromSlots(
      num_vertices_, directed_, std::move(sizes),
      [&](size_t slot, uint32_t* pivots, uint32_t* dists) {
        LabelCursor cursor(payload, offsets_[slot], offsets_[slot + 1]);
        for (size_t i = 0; cursor.Next(&pivot, &dist); ++i) {
          pivots[i] = pivot;
          dists[i] = dist;
        }
      }));
}

Distance CompressedIndex::Query(VertexId s, VertexId t) const {
  if (s >= num_vertices_ || t >= num_vertices_) return kInfDistance;
  if (s == t) return 0;
  // One scalar merge over the two labels as they decode. The trivial
  // pivots (t in Lout(s), s in Lin(t)) are folded in as their entries
  // pass, so each label is decoded once and never materialized.
  const auto* payload = reinterpret_cast<const uint8_t*>(payload_.data());
  LabelCursor a(payload, offsets_[SlotOut(s)], offsets_[SlotOut(s) + 1]);
  LabelCursor b(payload, offsets_[SlotIn(t)], offsets_[SlotIn(t) + 1]);
  Distance best = kInfDistance;
  VertexId pa = kInvalidVertex, pb = kInvalidVertex;
  Distance da = kInfDistance, db = kInfDistance;
  bool va = a.Next(&pa, &da);
  bool vb = b.Next(&pb, &db);
  while (va && vb) {
    if (pa == pb) {
      best = std::min(best, SaturatingAdd(da, db));
      va = a.Next(&pa, &da);
      vb = b.Next(&pb, &db);
    } else if (pa < pb) {
      if (pa == t) best = std::min(best, da);
      va = a.Next(&pa, &da);
    } else {
      if (pb == s) best = std::min(best, db);
      vb = b.Next(&pb, &db);
    }
  }
  for (; va; va = a.Next(&pa, &da)) {
    if (pa == t) best = std::min(best, da);
  }
  for (; vb; vb = b.Next(&pb, &db)) {
    if (pb == s) best = std::min(best, db);
  }
  return best;
}

uint64_t CompressedIndex::SizeBytes() const {
  return payload_.size() + offsets_.size() * sizeof(uint32_t) + 9;
}

Status CompressedIndex::Save(const std::string& path) const {
  std::string blob;
  blob.reserve(SizeBytes() + 8);
  PutU32(&blob, kMagic);
  PutU8(&blob, directed_ ? 1 : 0);
  PutU32(&blob, num_vertices_);
  for (const uint32_t off : offsets_) PutU32(&blob, off);
  blob.append(payload_);
  PutU64(&blob, Fnv1a64(blob.data(), blob.size()));
  return WriteStringToFile(path, blob);
}

Result<CompressedIndex> CompressedIndex::Load(const std::string& path) {
  std::string blob;
  HOPDB_RETURN_NOT_OK(ReadFileToString(path, &blob));
  if (blob.size() < 17) {
    return Status::IOError("compressed index file too small: " + path);
  }
  const uint64_t stored = DecodeU64(
      reinterpret_cast<const uint8_t*>(blob.data()) + blob.size() - 8);
  const uint64_t actual = Fnv1a64(blob.data(), blob.size() - 8);
  if (stored != actual) {
    return Status::IOError("compressed index checksum mismatch: " + path);
  }

  ByteReader reader(reinterpret_cast<const uint8_t*>(blob.data()),
                    blob.size() - 8);
  uint32_t magic;
  HOPDB_RETURN_NOT_OK(reader.ReadU32(&magic));
  if (magic != kMagic) {
    return Status::IOError("not a compressed index (bad magic): " + path);
  }
  CompressedIndex out;
  uint8_t flags;
  HOPDB_RETURN_NOT_OK(reader.ReadU8(&flags));
  out.directed_ = (flags & 1) != 0;
  HOPDB_RETURN_NOT_OK(reader.ReadU32(&out.num_vertices_));
  const size_t num_labels =
      out.directed_ ? 2 * static_cast<size_t>(out.num_vertices_)
                    : out.num_vertices_;
  if (reader.remaining() < (num_labels + 1) * 4) {
    return Status::IOError("compressed index offsets truncated: " + path);
  }
  out.offsets_.resize(num_labels + 1);
  for (auto& off : out.offsets_) {
    HOPDB_RETURN_NOT_OK(reader.ReadU32(&off));
  }
  if (out.offsets_.front() != 0) {
    return Status::IOError("compressed index offsets must start at 0");
  }
  for (size_t i = 1; i < out.offsets_.size(); ++i) {
    if (out.offsets_[i] < out.offsets_[i - 1]) {
      return Status::IOError("compressed index offsets not monotone");
    }
  }
  if (out.offsets_.back() != reader.remaining()) {
    return Status::IOError("compressed index payload size mismatch");
  }
  out.payload_.resize(reader.remaining());
  HOPDB_RETURN_NOT_OK(
      reader.ReadBytes(out.payload_.data(), out.payload_.size()));
  const Status valid = CheckLabels(out.payload_, out.offsets_,
                                   out.num_vertices_);
  if (!valid.ok()) {
    return Status::InvalidArgument("invalid HLC1 labels (" + valid.message() +
                                   "): " + path);
  }
  return out;
}

}  // namespace hopdb
