// Fuzz target for the HLI1 heap-index loader. The input is an HLI1
// body (magic, header, label sides); the target seals it with the
// FNV-1a-64 checksum the format ends with, writes it to a scratch file
// and hands it to TwoHopIndex::Load. Sealing every input lets mutations
// get past the checksum to the side-shape and label checks. Properties
// checked on every input:
//   - Load never crashes on hostile bodies, it returns a Status;
//   - an index it accepts passes Validate(false), and answers in-range
//     point queries and a one-to-many row over its frozen labels.
// The seed corpus is the bodies of two small valid files (undirected
// unweighted, directed weighted).

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fuzz_common.h"
#include "graph/edge_list.h"
#include "hopdb.h"
#include "labeling/two_hop_index.h"
#include "query/batch.h"
#include "util/serde.h"

namespace {

std::string ScratchPath() {
  static const std::string path =
      "/tmp/hopdb_fuzz_hli1." + std::to_string(::getpid()) + ".bin";
  return path;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string path = ScratchPath();
  std::string bytes(reinterpret_cast<const char*>(data), size);
  hopdb::PutU64(&bytes, hopdb::Fnv1a64(data, size));
  if (!hopdb::WriteStringToFile(path, bytes).ok()) return 0;

  auto index = hopdb::TwoHopIndex::Load(path);
  if (!index.ok()) return 0;  // rejection is the expected outcome

  if (!index->Validate(/*ranked=*/false).ok()) __builtin_trap();
  const hopdb::VertexId n = index->num_vertices();
  if (index->labels().num_vertices != n) __builtin_trap();
  std::vector<hopdb::VertexId> targets;
  for (hopdb::VertexId v = 0; v < n && v < 8; ++v) {
    if (index->Query(v, v) != 0) __builtin_trap();
    (void)index->Query(v, n - 1 - v);
    targets.push_back(n - 1 - v);
  }
  if (n > 0) {
    const std::vector<hopdb::Distance> row =
        hopdb::OneToManyEngine(index->labels(), targets).Query(0);
    for (size_t j = 0; j < targets.size(); ++j) {
      if (row[j] != index->Query(0, targets[j])) __builtin_trap();
    }
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
    const std::string path = ScratchPath() + ".seed";
    if (!index->label_index().Save(path).ok()) continue;
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
