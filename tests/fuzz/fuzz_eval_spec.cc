// Fuzz target for the eval workload-spec parser (`hopdb_cli eval
// --spec`). The spec is operator-supplied text, so the parser must hold
// the same contract as the wire parsers: never crash, never accept
// unbounded work, and reject with a line-numbered InvalidArgument.
// Properties checked on every input:
//   - ParseEvalSpec never reads out of bounds / crashes (sanitizers);
//   - accepted specs respect every documented cap (datasets, workloads,
//     vertices, queries, verify sources) — the RunEval work bound;
//   - accepted specs only name known variants;
//   - rejections are client-safe InvalidArgument with a message.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "eval/harness.h"
#include "fuzz_common.h"

namespace {

bool KnownVariant(const std::string& name) {
  for (const char* variant : hopdb::kEvalVariants) {
    if (name == variant) return true;
  }
  return false;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  hopdb::Result<hopdb::EvalSpec> spec = hopdb::ParseEvalSpec(text);
  if (spec.ok()) {
    if (spec->datasets.empty() || spec->datasets.size() > 32) {
      __builtin_trap();
    }
    if (spec->workloads.empty() || spec->workloads.size() > 32) {
      __builtin_trap();
    }
    for (const hopdb::EvalDataset& d : spec->datasets) {
      if (d.ad_hoc && (d.n == 0 || d.n > 2'000'000)) __builtin_trap();
      if (!(d.scale > 0) || d.scale > 100) __builtin_trap();
    }
    for (const std::string& v : spec->variants) {
      if (!KnownVariant(v)) __builtin_trap();
    }
    if (spec->num_queries > 1'000'000) __builtin_trap();
    if (spec->verify_sources > 256) __builtin_trap();
  } else {
    if (spec.status().code() != hopdb::StatusCode::kInvalidArgument) {
      __builtin_trap();  // the only rejection the CLI maps to usage help
    }
    if (spec.status().message().empty()) __builtin_trap();
  }
  return 0;
}

namespace hopdb_fuzz {

std::vector<std::string> SeedInputs() {
  return {
      hopdb::DefaultEvalSpecText(/*ci=*/true),
      hopdb::DefaultEvalSpecText(/*ci=*/false),
      "dataset Enron scale=0.5\n"
      "variants heap,blocked\n"
      "queries 512 seed=7\n"
      "workload within radius=3\n"
      "workload reach bound=4\n"
      "workload path\n"
      "verify 4\n",
      "graph n=2000 avg-degree=8 directed=1 weighted=1 seed=13\n"
      "workload batch size=16\n"
      "workload knn k=8\n",
      "# comment only\n\n   \n",
      // A retired variant name: the unknown-variant rejection path.
      "variants compressed\ngraph n=16\nqueries 1\n",
  };
}

}  // namespace hopdb_fuzz
