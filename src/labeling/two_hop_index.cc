#include "labeling/two_hop_index.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "labeling/query_kernel.h"
#include "util/logging.h"
#include "util/serde.h"

namespace hopdb {

namespace {
constexpr char kMagic[4] = {'H', 'L', 'I', '1'};
}

TwoHopIndex::TwoHopIndex(std::vector<LabelVector> out,
                         std::vector<LabelVector> in, bool directed)
    : out_(std::move(out)), in_(std::move(in)), directed_(directed) {
  if (!directed_) {
    HOPDB_CHECK(in_.empty()) << "undirected index must not carry in-labels";
  } else {
    HOPDB_CHECK_EQ(out_.size(), in_.size());
  }
  RebuildFlatStore();
}

Distance QueryLabelHalves(std::span<const LabelEntry> out_s,
                          std::span<const LabelEntry> in_t, VertexId s,
                          VertexId t) {
  if (s == t) return 0;
  Distance best = ActiveQueryKernel().intersect_entries(
      out_s.data(), static_cast<uint32_t>(out_s.size()), in_t.data(),
      static_cast<uint32_t>(in_t.size()));
  // Implicit trivial pivots: (s, 0) in Lout(s) and (t, 0) in Lin(t).
  Distance direct_t = LookupPivot(out_s, t);
  if (direct_t < best) best = direct_t;
  Distance direct_s = LookupPivot(in_t, s);
  if (direct_s < best) best = direct_s;
  return best;
}

Distance TwoHopIndex::Query(VertexId s, VertexId t) const {
  HOPDB_DCHECK_LT(s, num_vertices());
  HOPDB_DCHECK_LT(t, num_vertices());
  if (flat_.built()) {
    return QueryFlatHalves(flat_.Out(s), flat_.In(t), s, t,
                           ActiveQueryKernel());
  }
  return QueryLabelHalves(OutLabel(s), InLabel(t), s, t);
}

uint64_t TwoHopIndex::TotalEntries() const {
  uint64_t total = 0;
  for (const auto& l : out_) total += l.size();
  for (const auto& l : in_) total += l.size();
  return total;
}

double TwoHopIndex::AvgLabelSize() const {
  if (out_.empty()) return 0;
  return static_cast<double>(TotalEntries()) / static_cast<double>(out_.size());
}

uint64_t TwoHopIndex::SizeBytes() const {
  uint64_t bytes = 0;
  for (const auto& l : out_) bytes += l.size() * sizeof(LabelEntry);
  for (const auto& l : in_) bytes += l.size() * sizeof(LabelEntry);
  bytes += (out_.size() + in_.size()) * sizeof(LabelVector);
  if (flat_.built()) bytes += flat_.SizeBytes();
  return bytes;
}

uint64_t TwoHopIndex::PaperSizeBytes() const {
  // 4-byte pivot + 1-byte distance per entry, 8-byte offset per label.
  uint64_t labels = directed_ ? 2ull * out_.size() : out_.size();
  return TotalEntries() * 5ull + labels * 8ull;
}

std::vector<uint64_t> TwoHopIndex::EntriesPerPivot() const {
  std::vector<uint64_t> counts(num_vertices(), 0);
  for (const auto& l : out_) {
    for (const LabelEntry& e : l) counts[e.pivot]++;
  }
  for (const auto& l : in_) {
    for (const LabelEntry& e : l) counts[e.pivot]++;
  }
  return counts;
}

Status TwoHopIndex::Validate(bool ranked) const {
  auto check_side = [&](const std::vector<LabelVector>& side,
                        const char* name) -> Status {
    for (VertexId v = 0; v < side.size(); ++v) {
      const LabelVector& l = side[v];
      for (size_t i = 0; i < l.size(); ++i) {
        if (i > 0 && l[i - 1].pivot >= l[i].pivot) {
          return Status::Internal(std::string(name) + " label of " +
                                  std::to_string(v) +
                                  " not strictly sorted by pivot");
        }
        if (l[i].pivot == v) {
          return Status::Internal(std::string(name) + " label of " +
                                  std::to_string(v) +
                                  " stores a trivial self entry");
        }
        if (ranked && l[i].pivot > v) {
          return Status::Internal(std::string(name) + " label of " +
                                  std::to_string(v) +
                                  " has pivot ranked below owner");
        }
        if (l[i].dist == 0 || l[i].dist == kInfDistance) {
          return Status::Internal(std::string(name) + " label of " +
                                  std::to_string(v) + " has bad distance");
        }
      }
    }
    return Status::OK();
  };
  HOPDB_RETURN_NOT_OK(check_side(out_, directed_ ? "out" : "undirected"));
  HOPDB_RETURN_NOT_OK(check_side(in_, "in"));
  return Status::OK();
}

Status TwoHopIndex::Save(const std::string& path) const {
  std::string buf;
  buf.append(kMagic, 4);
  PutU32(&buf, directed_ ? 1u : 0u);
  PutU32(&buf, num_vertices());
  auto write_side = [&](const std::vector<LabelVector>& side) {
    PutU64(&buf, side.size());
    for (const auto& l : side) {
      PutU64(&buf, l.size());
      for (const LabelEntry& e : l) {
        PutU32(&buf, e.pivot);
        PutU32(&buf, e.dist);
      }
    }
  };
  write_side(out_);
  write_side(in_);
  // Trailing flat-mirror section (HFS1, delta-encoded, own checksum):
  // Load adopts it instead of rebuilding the SoA arenas from the
  // vectors. Readers of the original HLI1 body ignored trailing bytes,
  // so the section is backward- and forward-compatible.
  const size_t flat_begin = buf.size();
  if (flat_.built()) {
    flat_.AppendTo(&buf, /*delta_pivots=*/true);
  } else {
    FlatLabelStore::Build(out_, in_, directed_)
        .AppendTo(&buf, /*delta_pivots=*/true);
  }
  PutU64(&buf, Fnv1a64(buf.data() + flat_begin, buf.size() - flat_begin));
  return WriteStringToFile(path, buf);
}

Result<TwoHopIndex> TwoHopIndex::Load(const std::string& path) {
  std::string data;
  HOPDB_RETURN_NOT_OK(ReadFileToString(path, &data));
  ByteReader reader(data);
  char magic[4];
  HOPDB_RETURN_NOT_OK(reader.ReadBytes(magic, 4));
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("not a HLI1 index file: " + path);
  }
  uint32_t directed = 0, nv = 0;
  HOPDB_RETURN_NOT_OK(reader.ReadU32(&directed));
  HOPDB_RETURN_NOT_OK(reader.ReadU32(&nv));
  // Every label takes 8 bytes for its length and every entry 8 bytes, so
  // a count the rest of the file cannot hold is corrupt — reject it
  // before it sizes an allocation.
  auto read_side = [&](std::vector<LabelVector>* side) -> Status {
    uint64_t count = 0;
    HOPDB_RETURN_NOT_OK(reader.ReadU64(&count));
    if (count > reader.remaining() / 8) {
      return Status::InvalidArgument("label count exceeds file size: " + path);
    }
    side->resize(count);
    for (auto& l : *side) {
      uint64_t len = 0;
      HOPDB_RETURN_NOT_OK(reader.ReadU64(&len));
      if (len > reader.remaining() / 8) {
        return Status::InvalidArgument("label length exceeds file size: " +
                                       path);
      }
      l.resize(len);
      for (auto& e : l) {
        HOPDB_RETURN_NOT_OK(reader.ReadU32(&e.pivot));
        HOPDB_RETURN_NOT_OK(reader.ReadU32(&e.dist));
      }
    }
    return Status::OK();
  };
  std::vector<LabelVector> out, in;
  HOPDB_RETURN_NOT_OK(read_side(&out));
  HOPDB_RETURN_NOT_OK(read_side(&in));
  if (out.size() != nv || (directed != 0 && in.size() != nv)) {
    return Status::InvalidArgument("corrupt index file: " + path);
  }
  // Adopt the trailing flat-mirror section when present (files written
  // before the flat store existed end here; those rebuild the mirror).
  if (reader.remaining() > 0) {
    if (reader.remaining() < 8) {
      return Status::InvalidArgument("truncated flat section: " + path);
    }
    const size_t begin = reader.position();
    const size_t section_end = data.size() - 8;
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(data.data());
    if (Fnv1a64(bytes + begin, section_end - begin) !=
        DecodeU64(bytes + section_end)) {
      return Status::InvalidArgument("flat section checksum mismatch: " +
                                     path);
    }
    ByteReader flat_reader(bytes + begin, section_end - begin);
    HOPDB_ASSIGN_OR_RETURN(FlatLabelStore flat,
                           FlatLabelStore::Parse(&flat_reader));
    if (flat_reader.remaining() != 0 ||
        !flat.MirrorsVectors(out, in, directed != 0)) {
      return Status::InvalidArgument(
          "flat section disagrees with label vectors: " + path);
    }
    TwoHopIndex index;
    index.out_ = std::move(out);
    index.in_ = std::move(in);
    index.directed_ = directed != 0;
    index.flat_ = std::move(flat);
    return index;
  }
  return TwoHopIndex(std::move(out), std::move(in), directed != 0);
}

}  // namespace hopdb
