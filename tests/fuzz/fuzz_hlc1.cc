// Fuzz target for the HLC1 compressed-index loader. The input is an
// HLC1 file without its trailing checksum (magic, flags, |V|, offsets,
// payload); the target seals it with FNV-1a-64, writes it to a scratch
// file and hands it to CompressedIndex::Load. Sealing every input lets
// mutations get past the checksum to the offset and label checks.
// Properties checked on every input:
//   - Load never crashes on hostile files, it returns a Status;
//   - a file it accepts decompresses, and the decompressed index passes
//     Validate(false), answers Query(v, v) == 0, and agrees with
//     CompressedIndex::Query on in-range pairs (its scalar merge decodes
//     the payload Load checked, without re-checking it).
// The seed corpus is two small valid files (undirected unweighted,
// directed weighted).

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fuzz_common.h"
#include "graph/edge_list.h"
#include "hopdb.h"
#include "labeling/compressed_index.h"
#include "labeling/two_hop_index.h"
#include "util/serde.h"

namespace {

std::string ScratchPath() {
  static const std::string path =
      "/tmp/hopdb_fuzz_hlc1." + std::to_string(::getpid()) + ".bin";
  return path;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string path = ScratchPath();
  std::string bytes(reinterpret_cast<const char*>(data), size);
  hopdb::PutU64(&bytes, hopdb::Fnv1a64(data, size));
  if (!hopdb::WriteStringToFile(path, bytes).ok()) return 0;

  auto compressed = hopdb::CompressedIndex::Load(path);
  if (!compressed.ok()) return 0;  // rejection is the expected outcome

  auto index = compressed->Decompress();
  if (!index.ok()) __builtin_trap();
  if (!index->Validate(/*ranked=*/false).ok()) __builtin_trap();
  const hopdb::VertexId n = index->num_vertices();
  if (n != compressed->num_vertices()) __builtin_trap();
  for (hopdb::VertexId v = 0; v < n && v < 8; ++v) {
    if (index->Query(v, v) != 0) __builtin_trap();
    const hopdb::VertexId t = n - 1 - v;
    if (index->Query(v, t) != compressed->Query(v, t)) __builtin_trap();
    if (index->Query(t, v) != compressed->Query(t, v)) __builtin_trap();
  }
  return 0;
}

namespace hopdb_fuzz {

std::vector<std::string> SeedInputs() {
  std::vector<std::string> seeds;
  for (const bool directed : {false, true}) {
    hopdb::EdgeList edges;
    edges.set_directed(directed);
    edges.set_weighted(directed);
    edges.Add(0, 1, 2);
    edges.Add(1, 2, 1);
    edges.Add(2, 3, 4);
    edges.Add(3, 4, 1);
    edges.Add(0, 5, 7);
    edges.Add(5, 4, 1);
    auto index = hopdb::HopDbIndex::Build(edges);
    if (!index.ok()) continue;
    auto compressed = hopdb::CompressedIndex::FromIndex(index->label_index());
    if (!compressed.ok()) continue;
    const std::string path = ScratchPath() + ".seed";
    if (!compressed->Save(path).ok()) continue;
    std::string file;
    const hopdb::Status read = hopdb::ReadFileToString(path, &file);
    std::remove(path.c_str());
    if (!read.ok() || file.size() < 8) continue;
    file.resize(file.size() - 8);  // the target re-seals every file
    seeds.push_back(file);
  }
  return seeds;
}

}  // namespace hopdb_fuzz
