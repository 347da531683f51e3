#include "labeling/two_hop_index.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "graph/ranking.h"
#include "io/block_file.h"
#include "io/window_reader.h"
#include "labeling/query_kernel.h"
#include "util/logging.h"
#include "util/serde.h"

namespace hopdb {

namespace {

constexpr char kMagic[4] = {'H', 'L', 'I', '1'};

}  // namespace

TwoHopIndex::TwoHopIndex(std::vector<LabelVector> out,
                         std::vector<LabelVector> in, bool directed)
    : flat_(FlatLabelStore::Build(out, in, directed)) {}

Distance QueryLabelHalves(std::span<const LabelEntry> out_s,
                          std::span<const LabelEntry> in_t, VertexId s,
                          VertexId t) {
  if (s == t) return 0;
  Distance best = IntersectLabels(out_s, in_t);
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
  return QueryFlatHalves(flat_.Out(s), flat_.In(t), s, t,
                         ActiveQueryKernel());
}

double TwoHopIndex::AvgLabelSize() const {
  if (num_vertices() == 0) return 0;
  return static_cast<double>(TotalEntries()) /
         static_cast<double>(num_vertices());
}

uint64_t TwoHopIndex::PaperSizeBytes() const {
  // 4-byte pivot + 1-byte distance per entry, 8-byte offset per label.
  const uint64_t labels = directed() ? 2ull * num_vertices() : num_vertices();
  return TotalEntries() * 5ull + labels * 8ull;
}

std::vector<uint64_t> TwoHopIndex::EntriesPerPivot() const {
  std::vector<uint64_t> counts(num_vertices(), 0);
  const LabelSetView view = labels();
  for (size_t slot = 0; slot < view.num_slots(); ++slot) {
    const FlatLabelStore::View label = view.Slot(slot);
    for (uint32_t i = 0; i < label.size; ++i) counts[label.pivots[i]]++;
  }
  return counts;
}

Status TwoHopIndex::Validate(bool ranked) const {
  const VertexId n = num_vertices();
  auto check_side = [&](bool in_side, const char* name) -> Status {
    for (VertexId v = 0; v < n; ++v) {
      const FlatLabelStore::View l = in_side ? flat_.In(v) : flat_.Out(v);
      const auto fail = [&](const char* what) {
        return Status::Internal(std::string(name) + " label of " +
                                std::to_string(v) + " " + what);
      };
      for (uint32_t i = 0; i < l.size; ++i) {
        const VertexId pivot = l.pivots[i];
        if (i > 0 && l.pivots[i - 1] >= pivot) {
          return fail("not strictly sorted by pivot");
        }
        if (pivot == v) return fail("stores a trivial self entry");
        if (pivot >= n) return fail("has pivot out of range");
        if (ranked && pivot > v) return fail("has pivot ranked below owner");
        if (l.dists[i] == 0 || l.dists[i] == kInfDistance) {
          return fail("has bad distance");
        }
      }
    }
    return Status::OK();
  };
  HOPDB_RETURN_NOT_OK(
      check_side(/*in_side=*/false, directed() ? "out" : "undirected"));
  if (directed()) HOPDB_RETURN_NOT_OK(check_side(/*in_side=*/true, "in"));
  return Status::OK();
}

Status TwoHopIndex::Save(const std::string& path,
                         const RankMapping& ranking) const {
  const VertexId n = num_vertices();
  if (ranking.size() != n) {
    return Status::InvalidArgument("HLI1 rank section needs |V| ids");
  }
  const uint64_t in_count = directed() ? n : 0;
  // 12 B header; per side an 8 B label count and 8 B per label length;
  // 8 B per entry; 4 B per rank id; the 8 B checksum.
  const uint64_t size =
      12 + 8 * (2 + n + in_count) + 8 * TotalEntries() + 4ull * n + 8;
  std::string buf;
  buf.reserve(size);
  buf.append(kMagic, 4);
  PutU32(&buf, directed() ? 1u : 0u);
  PutU32(&buf, n);
  auto write_side = [&](uint64_t count, bool in_side) {
    PutU64(&buf, count);
    for (VertexId v = 0; v < count; ++v) {
      const FlatLabelStore::View l = in_side ? flat_.In(v) : flat_.Out(v);
      PutU64(&buf, l.size);
      for (uint32_t i = 0; i < l.size; ++i) {
        PutU32(&buf, l.pivots[i]);
        PutU32(&buf, l.dists[i]);
      }
    }
  };
  write_side(n, /*in_side=*/false);
  write_side(in_count, /*in_side=*/true);
  for (const VertexId v : ranking.rank_to_orig) PutU32(&buf, v);
  PutU64(&buf, Fnv1a64(buf.data(), buf.size()));
  if (buf.size() != size) {
    return Status::Internal("HLI1 writer size mismatch");
  }
  HOPDB_RETURN_NOT_OK(WriteStringToFile(path, buf));
  return RemoveFileIfExists(path + ".perm");
}

Result<TwoHopIndex> TwoHopIndex::Load(const std::string& path,
                                      RankMapping* ranking) {
  HOPDB_ASSIGN_OR_RETURN(BlockFile file, BlockFile::OpenRead(path));
  WindowReader reader(&file);
  const uint8_t* magic = nullptr;
  if (file.size() >= sizeof(kMagic) + 8) {
    HOPDB_RETURN_NOT_OK(reader.Take(sizeof(kMagic), &magic));
  }
  if (magic == nullptr || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a HLI1 index file: " + path);
  }
  // The body is every byte but the trailing checksum, so a file that
  // carries anything past the checksum fails its checks too.
  const uint64_t body = file.size() - 8;
  // With the reader at the body's end, having hashed every byte before.
  const auto verify_checksum = [&]() -> Status {
    uint64_t stored = 0;
    HOPDB_RETURN_NOT_OK(reader.Read(file.size(), &stored));
    if (reader.hash() == stored) return Status::OK();
    return Status::InvalidArgument(
        "HLI1 checksum mismatch (a corrupt file, or one written by an "
        "earlier hopdb build: rebuild it): " + path);
  };

  // Pass 1: the header and the label lengths, which size the store's
  // slots; entries and ranks are skipped. Every label takes 8 bytes for
  // its length and every entry 8 bytes, so a count the rest of the body
  // cannot hold is corrupt — reject it before it sizes an allocation.
  uint32_t directed = 0, nv = 0;
  uint64_t out_count = 0, in_count = 0;
  std::vector<uint32_t> sizes;
  auto read_lengths = [&](uint64_t* count) -> Status {
    HOPDB_RETURN_NOT_OK(reader.Read(body, count));
    if (*count > (body - reader.position()) / 8) {
      return Status::InvalidArgument("label count exceeds file size");
    }
    sizes.reserve(sizes.size() + *count);
    for (uint64_t i = 0; i < *count; ++i) {
      uint64_t len = 0;
      HOPDB_RETURN_NOT_OK(reader.Read(body, &len));
      if (len > (body - reader.position()) / 8 || len > UINT32_MAX) {
        return Status::InvalidArgument("label length exceeds file size");
      }
      sizes.push_back(static_cast<uint32_t>(len));
      HOPDB_RETURN_NOT_OK(reader.Skip(len * 8));
    }
    return Status::OK();
  };
  auto read_shape = [&]() -> Status {
    HOPDB_RETURN_NOT_OK(reader.Read(body, &directed));
    HOPDB_RETURN_NOT_OK(reader.Read(body, &nv));
    HOPDB_RETURN_NOT_OK(read_lengths(&out_count));
    HOPDB_RETURN_NOT_OK(read_lengths(&in_count));
    // One u32 rank id per vertex, and nothing after them.
    if (body - reader.position() != 4ull * nv) {
      return Status::InvalidArgument(
          "no 4|V|-byte rank section after the label sides; rebuild an "
          "index an earlier build saved with a .perm sidecar");
    }
    // The shapes the store's slot layout needs, refused before it runs.
    if (directed > 1 || out_count != nv ||
        in_count != (directed != 0 ? nv : 0)) {
      return Status::InvalidArgument(
          "label side counts disagree with the header");
    }
    return Status::OK();
  };
  if (const Status parsed = read_shape(); !parsed.ok()) {
    // A file that fails its checksum reports that first, whatever else
    // is wrong with it.
    reader.Rewind(body);
    HOPDB_RETURN_NOT_OK(reader.Skip(body));
    HOPDB_RETURN_NOT_OK(verify_checksum());
    return Status::InvalidArgument("corrupt HLI1 body (" +
                                   parsed.message() + "): " + path);
  }

  // Pass 2: read the body again, hashing every byte, and decode each
  // label straight into its slot, then the ranks. A header, count or
  // length that differs from pass 1's means the file changed in between.
  const auto changed = [&] {
    return Status::InvalidArgument("HLI1 file changed while loading: " +
                                   path);
  };
  reader.Rewind(body);
  uint32_t directed2 = 0, nv2 = 0;
  HOPDB_RETURN_NOT_OK(reader.Take(sizeof(kMagic), &magic));
  HOPDB_RETURN_NOT_OK(reader.Read(body, &directed2));
  HOPDB_RETURN_NOT_OK(reader.Read(body, &nv2));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
      directed2 != directed || nv2 != nv) {
    return changed();
  }
  int counts_read = 0;
  auto read_count = [&]() -> Status {
    uint64_t count = 0;
    HOPDB_RETURN_NOT_OK(reader.Read(body, &count));
    if (count != (counts_read++ == 0 ? out_count : in_count)) {
      return changed();
    }
    return Status::OK();
  };
  Result<FlatLabelStore> store = FlatLabelStore::FromSlots(
      nv, directed != 0, std::move(sizes),
      [&](size_t slot, uint32_t size, uint32_t* pivots,
          uint32_t* dists) -> Status {
        if (slot == 0 || slot == nv) HOPDB_RETURN_NOT_OK(read_count());
        uint64_t len = 0;
        HOPDB_RETURN_NOT_OK(reader.Read(body, &len));
        if (len != size) return changed();
        // As many whole entries as the window holds at a time.
        for (uint32_t i = 0; i < size;) {
          HOPDB_RETURN_NOT_OK(reader.Fill(8));
          const auto n = static_cast<uint32_t>(
              std::min<uint64_t>(size - i, reader.buffered() / 8));
          const uint8_t* entry = reader.Consume(size_t{n} * 8);
          for (const uint32_t stop = i + n; i < stop; ++i, entry += 8) {
            pivots[i] = DecodeU32(entry);
            dists[i] = DecodeU32(entry + 4);
          }
        }
        return Status::OK();
      });
  HOPDB_RETURN_NOT_OK(store.status());
  while (counts_read < 2) HOPDB_RETURN_NOT_OK(read_count());
  std::vector<VertexId> order(nv);
  for (VertexId& v : order) HOPDB_RETURN_NOT_OK(reader.Read(body, &v));
  if (reader.position() != body) return changed();
  HOPDB_RETURN_NOT_OK(verify_checksum());

  TwoHopIndex index(std::move(store).value());
  const Status valid = index.Validate(/*ranked=*/false);
  if (!valid.ok()) {
    return Status::InvalidArgument("invalid HLI1 labels (" + valid.message() +
                                   "): " + path);
  }
  if (!IsPermutation(order)) {
    return Status::InvalidArgument("HLI1 ranks are not a permutation: " + path);
  }
  *ranking = RankingFromOrder(std::move(order));
  return index;
}

}  // namespace hopdb
