// Fuzz target for the HLI1 heap-index loader. The input is an HLI1
// body in the compact layout (magic, layout word, |V|, lengths section,
// varint entries, rank section); the target seals it with the
// FNV-1a-64 checksum the format ends with, writes it to a scratch file
// and hands it to HopDbIndex::Load. Sealing every input lets mutations
// get past the checksum to the shape, varint, label and
// rank-permutation checks. Properties checked on every input:
//   - Load never crashes on hostile bodies (overlong or truncated
//     varints and a rank section that is not a permutation included),
//     it returns a Status;
//   - an index it accepts passes Validate(false), its ranking maps each
//     id back to itself, it answers in-range point queries and a
//     one-to-many row over its frozen labels, and it saves back to the
//     very bytes it was loaded from, so the encoding is canonical: one
//     file per index.
// The seed corpus is the bodies of three small valid files (undirected
// unweighted, directed weighted, and directed with weights of 128 and
// more, whose store freezes with 4-byte distance lanes). Byte-level
// mutations mostly break a varint or move the rank section, so the
// standalone smoke loop also mutates seeds structurally: it decodes a
// body's entries, edits pivot gaps, distances (127 and 128 among them,
// the lane-width boundary), entries and ranks, and re-encodes it
// canonically, so most such inputs reach an accepted load.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fuzz_common.h"
#include "graph/edge_list.h"
#include "hopdb.h"
#include "labeling/two_hop_index.h"
#include "query/batch.h"
#include "util/serde.h"

namespace {

const std::string& ScratchPath() {
  static const hopdb_fuzz::ScratchFile file("hli1", ".bin");
  return file.path();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string path = ScratchPath();
  std::string bytes(reinterpret_cast<const char*>(data), size);
  hopdb::PutU64(&bytes, hopdb::Fnv1a64(data, size));
  if (!hopdb::WriteStringToFile(path, bytes).ok()) return 0;

  auto loaded = hopdb::HopDbIndex::Load(path);
  if (!loaded.ok()) return 0;  // rejection is the expected outcome

  const hopdb::TwoHopIndex& index = loaded->label_index();
  if (!index.Validate(/*ranked=*/false).ok()) __builtin_trap();
  const hopdb::VertexId n = index.num_vertices();
  if (index.labels().num_vertices != n) __builtin_trap();
  const hopdb::RankMapping& ranking = loaded->ranking();
  if (ranking.size() != n) __builtin_trap();
  for (hopdb::VertexId v = 0; v < n; ++v) {
    if (ranking.ToOriginal(ranking.ToInternal(v)) != v) __builtin_trap();
  }
  std::vector<hopdb::VertexId> targets;
  for (hopdb::VertexId v = 0; v < n && v < 8; ++v) {
    if (loaded->Query(v, v) != 0) __builtin_trap();
    (void)loaded->Query(v, n - 1 - v);
    targets.push_back(n - 1 - v);
  }
  if (n > 0) {
    const std::vector<hopdb::Distance> row =
        hopdb::OneToManyEngine(index.labels(), targets).Query(0);
    for (size_t j = 0; j < targets.size(); ++j) {
      if (row[j] != index.Query(0, targets[j])) __builtin_trap();
    }
  }
  const std::string resaved = path + ".resaved";
  if (!loaded->Save(resaved).ok()) __builtin_trap();
  std::string again;
  if (!hopdb::ReadFileToString(resaved, &again).ok()) __builtin_trap();
  std::remove(resaved.c_str());
  if (again != bytes) __builtin_trap();
  return 0;
}

namespace hopdb_fuzz {

std::vector<std::string> SeedInputs() {
  std::vector<std::string> seeds;
  // (directed, largest weight): the last seed's labels hold distances
  // of 128 and more.
  for (const auto& [directed, heavy] :
       {std::pair{false, 1u}, std::pair{true, 7u}, std::pair{true, 200u}}) {
    hopdb::EdgeList edges;
    edges.set_directed(directed);
    edges.set_weighted(heavy > 1);
    edges.Add(0, 1, heavy > 1 ? 2 : 1);
    edges.Add(1, 2, 1);
    edges.Add(2, 3, heavy > 1 ? 4 : 1);
    edges.Add(3, 4, 1);
    edges.Add(0, 5, heavy);
    edges.Add(5, 4, 1);
    if (heavy > 7) edges.Add(4, 6, 128);
    auto index = hopdb::HopDbIndex::Build(edges);
    if (!index.ok()) continue;
    const std::string path = ScratchPath() + ".seed";
    if (!index->Save(path).ok()) continue;
    std::string file;
    const hopdb::Status read = hopdb::ReadFileToString(path, &file);
    std::remove(path.c_str());
    if (!read.ok() || file.size() < 8) continue;
    file.resize(file.size() - 8);  // the target re-seals every body
    seeds.push_back(file);
  }
  return seeds;
}

}  // namespace hopdb_fuzz

#if defined(HOPDB_FUZZ_STANDALONE)

namespace {

/// An HLI1 body decoded into its parts: the layout word, |V|, each
/// slot's (pivot gap, distance) entries, and the rank section's bytes.
struct Body {
  uint32_t layout = 0;
  uint32_t n = 0;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> slots;
  std::string ranks;
};

/// Decodes a compact body; false when it is not one.
bool DecodeBody(const std::string& bytes, Body* body) {
  if (bytes.size() < 12 || bytes.compare(0, 4, "HLI1") != 0) return false;
  const auto* p = reinterpret_cast<const uint8_t*>(bytes.data());
  const uint8_t* const end = p + bytes.size();
  body->layout = hopdb::DecodeU32(p + 4);
  body->n = hopdb::DecodeU32(p + 8);
  if ((body->layout & ~1u) != 2 || body->n > bytes.size()) return false;
  p += 12;
  body->slots.assign(size_t{body->n} << (body->layout & 1u), {});
  std::vector<uint32_t> sizes(body->slots.size());
  for (uint32_t& size : sizes) {
    if (!hopdb::DecodeVarint32(&p, end, &size) ||
        size > static_cast<size_t>(end - p)) {
      return false;
    }
  }
  for (size_t slot = 0; slot < sizes.size(); ++slot) {
    body->slots[slot].resize(sizes[slot]);
    for (auto& [gap, dist] : body->slots[slot]) {
      if (!hopdb::DecodeVarint32(&p, end, &gap) ||
          !hopdb::DecodeVarint32(&p, end, &dist)) {
        return false;
      }
    }
  }
  body->ranks.assign(reinterpret_cast<const char*>(p),
                     static_cast<size_t>(end - p));
  return true;
}

/// The canonical bytes of `body`.
std::string EncodeBody(const Body& body) {
  std::string out = "HLI1";
  hopdb::PutU32(&out, body.layout);
  hopdb::PutU32(&out, body.n);
  const auto put_varint = [&](uint32_t v) {
    uint8_t bytes[hopdb::kMaxVarint32Bytes];
    out.append(reinterpret_cast<const char*>(bytes),
               hopdb::EncodeVarint32(v, bytes));
  };
  for (const auto& slot : body.slots) {
    put_varint(static_cast<uint32_t>(slot.size()));
  }
  for (const auto& slot : body.slots) {
    for (const auto& [gap, dist] : slot) {
      put_varint(gap);
      put_varint(dist);
    }
  }
  return out + body.ranks;
}

}  // namespace

namespace hopdb_fuzz {

std::string MutateStructured(const std::string& seed, hopdb::Rng* rng) {
  Body body;
  if (!DecodeBody(seed, &body) || body.slots.empty()) return seed;
  // Distances around the one-byte lane limit and the varint byte edges.
  static constexpr uint32_t kDists[] = {1,   2,    126,   127,   128,
                                        129, 255,  256,   16383, 16384,
                                        0,   1000, 70000, 0xFFFFFFFEu};
  const auto random_dist = [&] {
    return kDists[rng->Below(sizeof(kDists) / sizeof(kDists[0]))];
  };
  const size_t edits = 1 + rng->Below(4);
  for (size_t e = 0; e < edits; ++e) {
    auto& slot = body.slots[rng->Below(body.slots.size())];
    switch (rng->Below(5)) {
      case 0:  // a distance
        if (!slot.empty()) slot[rng->Below(slot.size())].second = random_dist();
        break;
      case 1:  // a pivot gap, moving that pivot and every later one
        if (!slot.empty()) {
          uint32_t& gap = slot[rng->Below(slot.size())].first;
          gap = rng->Chance(0.8)
                    ? gap + static_cast<uint32_t>(rng->Below(3))
                    : static_cast<uint32_t>(rng->Below(body.n + 2));
        }
        break;
      case 2:  // a new entry
        slot.insert(slot.begin() + static_cast<ptrdiff_t>(
                                       rng->Below(slot.size() + 1)),
                    {static_cast<uint32_t>(rng->Below(2)), random_dist()});
        break;
      case 3:  // an entry removed
        if (!slot.empty()) {
          slot.erase(slot.begin() +
                     static_cast<ptrdiff_t>(rng->Below(slot.size())));
        }
        break;
      default:  // two rank ids swapped: still a permutation
        if (body.ranks.size() >= 8) {
          const size_t words = body.ranks.size() / 4;
          const size_t a = 4 * rng->Below(words);
          const size_t b = 4 * rng->Below(words);
          for (size_t i = 0; i < 4; ++i) {
            std::swap(body.ranks[a + i], body.ranks[b + i]);
          }
        }
        break;
    }
  }
  return EncodeBody(body);
}

}  // namespace hopdb_fuzz

#endif  // HOPDB_FUZZ_STANDALONE
