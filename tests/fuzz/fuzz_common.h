// Shared driver for hopdb fuzz targets. Each target defines the
// libFuzzer entry point LLVMFuzzerTestOneInput plus SeedInputs(), a
// small set of structured inputs that exercise the happy path.
//
// Two build modes share every target source file:
//   - libFuzzer (-DHOPDB_BUILD_FUZZERS=ON, clang only): the real
//     coverage-guided binary; SeedInputs() is written out as the
//     starting corpus when the binary is run with -seed_corpus_dir.
//   - standalone smoke (always built, any compiler): this header
//     supplies a main() that replays argv files if given, otherwise
//     runs a deterministic loop of seed / mutated-seed / random inputs.
//     Registered as a ctest entry, so every CI run gets a short fuzz
//     pass without a libFuzzer toolchain.
//
// Targets signal a property violation with __builtin_trap() (not
// assert) so release builds abort too. Targets that hand their input to
// a file loader write it to a ScratchFile, which is removed when the
// process exits.

#ifndef HOPDB_TESTS_FUZZ_FUZZ_COMMON_H_
#define HOPDB_TESTS_FUZZ_FUZZ_COMMON_H_

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace hopdb_fuzz {

/// Structured inputs the target wants in every corpus (may be empty).
std::vector<std::string> SeedInputs();

/// A per-process scratch file, `/tmp/hopdb_fuzz_<stem>.<pid><ext>`,
/// removed when the object is destroyed: a target keeps one in a
/// function-local static, so the file goes when the process exits.
class ScratchFile {
 public:
  ScratchFile(const char* stem, const char* ext)
      : path_(std::string("/tmp/hopdb_fuzz_") + stem + "." +
              std::to_string(::getpid()) + ext) {}
  ~ScratchFile() { std::remove(path_.c_str()); }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace hopdb_fuzz

#if defined(HOPDB_FUZZ_STANDALONE)

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/random.h"

namespace hopdb_fuzz {

/// A structure-aware variant of `seed` — decoded, edited and re-encoded
/// with knowledge of the format — that a target may define; the smoke
/// loop then draws half of its seed mutations from it. Declared weak, so
/// targets without one link and run the byte-level mutations alone.
[[gnu::weak]] std::string MutateStructured(const std::string& seed,
                                           hopdb::Rng* rng);

inline void RunOne(const std::string& input) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(input.data()),
                         input.size());
}

/// Seed verbatim, then truncated / byte-flipped / extended (or
/// structure-aware) variants, then pure random buffers: cheap
/// approximations of what a guided fuzzer finds in its first minutes.
inline int SmokeLoop(int iterations, uint64_t seed) {
  const std::vector<std::string> seeds = SeedInputs();
  for (const std::string& s : seeds) RunOne(s);

  hopdb::Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    std::string input;
    if (!seeds.empty() && rng.Chance(0.7)) {
      input = seeds[rng.Below(seeds.size())];
      const int kind = static_cast<int>(rng.Below(3));
      if (MutateStructured != nullptr && rng.Chance(0.5)) {
        input = MutateStructured(input, &rng);
      } else if (kind == 0 && !input.empty()) {
        input.resize(rng.Below(input.size() + 1));  // truncate
      } else if (kind == 1 && !input.empty()) {
        const size_t flips = 1 + rng.Below(8);
        for (size_t f = 0; f < flips; ++f) {
          input[rng.Below(input.size())] =
              static_cast<char>(rng.Below(256));
        }
      } else {
        input.append(rng.Below(32), static_cast<char>(rng.Below(256)));
      }
    } else {
      input.resize(rng.Below(96));
      for (char& c : input) c = static_cast<char>(rng.Below(256));
    }
    RunOne(input);
  }
  return iterations;
}

}  // namespace hopdb_fuzz

int main(int argc, char** argv) {
  // Replay mode: treat every argument as a crash-input file.
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      std::ifstream in(argv[i], std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      hopdb_fuzz::RunOne(buf.str());
      std::printf("replayed %s (%zu bytes)\n", argv[i], buf.str().size());
    }
    return 0;
  }
  // Timed mode (the CI fuzz-smoke leg): HOPDB_FUZZ_SMOKE_SECONDS=N
  // keeps running fresh-seeded batches until the budget expires.
  if (const char* budget = std::getenv("HOPDB_FUZZ_SMOKE_SECONDS");
      budget != nullptr && budget[0] != '\0') {
    const double seconds = std::atof(budget);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    uint64_t seed = 0x5EEDF00DULL;
    long total = 0;
    do {
      total += hopdb_fuzz::SmokeLoop(/*iterations=*/1000, seed++);
    } while (std::chrono::steady_clock::now() < deadline);
    std::printf("fuzz smoke: %ld iterations over a %.0fs budget, no trap\n",
                total, seconds);
    return 0;
  }
  const int ran = hopdb_fuzz::SmokeLoop(/*iterations=*/3000,
                                        /*seed=*/0x5EEDF00DULL);
  std::printf("fuzz smoke: %d deterministic iterations, no trap\n", ran);
  return 0;
}

#endif  // HOPDB_FUZZ_STANDALONE

#endif  // HOPDB_TESTS_FUZZ_FUZZ_COMMON_H_
