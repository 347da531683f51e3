// Scalar-vs-SIMD agreement for the query kernels: every kernel the CPU
// supports must return bit-identical distances on randomized labels —
// including the kInfDistance saturation corner when d1 + d2 overflows
// uint32 — and so must the span-based QueryLabelHalves merge, which the
// blocked query path must also match, at both distance-lane widths
// (one-byte lanes up to distance 127, 4-byte lanes from 128).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "labeling/flat_label_store.h"
#include "labeling/label_entry.h"
#include "labeling/query_kernel.h"
#include "labeling/two_hop_index.h"
#include "util/random.h"

namespace hopdb {
namespace {

LabelVector RandomLabel(Rng* rng, VertexId pivot_space, size_t max_len,
                        Distance max_dist) {
  std::map<VertexId, Distance> entries;
  const size_t len = rng->Below(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    const VertexId pivot = static_cast<VertexId>(rng->Below(pivot_space));
    const Distance dist = static_cast<Distance>(rng->Uniform(1, max_dist));
    entries.emplace(pivot, dist);
  }
  LabelVector out;
  for (auto [p, d] : entries) out.push_back({p, d});
  return out;
}

Distance BruteIntersect(const LabelVector& a, const LabelVector& b) {
  Distance best = kInfDistance;
  for (const LabelEntry& ea : a) {
    for (const LabelEntry& eb : b) {
      if (ea.pivot == eb.pivot) {
        best = std::min(best, SaturatingAdd(ea.dist, eb.dist));
      }
    }
  }
  return best;
}

void ExpectAllKernelsAgree(const LabelVector& a, const LabelVector& b,
                           const std::string& context) {
  const Distance want = BruteIntersect(a, b);
  // One directed vertex: a is its out-label, b its in-label, each laid
  // out in padded 16-entry blocks with min/max sidecars.
  const FlatLabelStore store = FlatLabelStore::Build({a}, {b}, true);
  const FlatLabelStore::View va = store.Out(0);
  const FlatLabelStore::View vb = store.In(0);
  for (const QueryKernel* kernel : SupportedQueryKernels()) {
    EXPECT_EQ(kernel->intersect_blocked(va, vb), want)
        << context << " intersect_blocked kernel=" << kernel->name;
  }
  // Endpoints outside the pivot space: the trivial probes miss.
  EXPECT_EQ(QueryLabelHalves(a, b, 1u << 30, 1u << 31), want) << context;
}

TEST(QueryKernelTest, ScalarKernelIsAlwaysFirst) {
  const auto kernels = SupportedQueryKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels[0]->name, "scalar");
  // The only other kernel is avx2, and only where the CPU has it.
  ASSERT_LE(kernels.size(), 2u);
  if (kernels.size() == 2) {
    EXPECT_STREQ(kernels[1]->name, "avx2");
  }
}

TEST(QueryKernelTest, FindAndSetByName) {
  EXPECT_EQ(FindQueryKernel("no-such-kernel"), nullptr);
  EXPECT_FALSE(SetActiveQueryKernel("no-such-kernel"));
  const std::string before = ActiveQueryKernel().name;
  for (const QueryKernel* kernel : SupportedQueryKernels()) {
    ASSERT_NE(FindQueryKernel(kernel->name), nullptr);
    ASSERT_TRUE(SetActiveQueryKernel(kernel->name));
    EXPECT_STREQ(ActiveQueryKernel().name, kernel->name);
  }
  ASSERT_TRUE(SetActiveQueryKernel(before));
}

TEST(QueryKernelTest, EmptyAndDegenerateInputs) {
  const LabelVector empty;
  const LabelVector one{{3, 5}};
  const LabelVector other{{3, 7}, {9, 1}};
  ExpectAllKernelsAgree(empty, empty, "empty/empty");
  ExpectAllKernelsAgree(empty, other, "empty/other");
  ExpectAllKernelsAgree(one, other, "one/other");
  ExpectAllKernelsAgree(one, one, "one/one");
}

TEST(QueryKernelTest, RandomizedAgreementAcrossSizes) {
  Rng rng(42);
  // Mixed sizes straddling the 8-lane register and 16-entry block
  // boundaries, plus skewed big-vs-small pairings that exercise the
  // advance logic.
  const size_t sizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 200};
  for (const size_t la : sizes) {
    for (const size_t lb : sizes) {
      for (int round = 0; round < 8; ++round) {
        // Small pivot space forces plenty of matches.
        LabelVector a = RandomLabel(&rng, 96, la, 50);
        LabelVector b = RandomLabel(&rng, 96, lb, 50);
        ExpectAllKernelsAgree(a, b, "sizes " + std::to_string(la) + "x" +
                                        std::to_string(lb) + " round " +
                                        std::to_string(round));
      }
    }
  }
}

TEST(QueryKernelTest, SaturatingOverflowAgreement) {
  // d1 + d2 wrapping uint32 must saturate to kInfDistance in every
  // kernel, and an overflowed match must not shadow a later real one.
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    LabelVector a = RandomLabel(&rng, 64, 24, kInfDistance - 1);
    LabelVector b = RandomLabel(&rng, 64, 24, kInfDistance - 1);
    // Mix in a few small distances so some sums stay finite.
    for (LabelEntry& e : a) {
      if (rng.Below(3) == 0) e.dist = static_cast<Distance>(rng.Uniform(1, 9));
    }
    for (LabelEntry& e : b) {
      if (rng.Below(3) == 0) e.dist = static_cast<Distance>(rng.Uniform(1, 9));
    }
    ExpectAllKernelsAgree(a, b, "overflow round " + std::to_string(round));
  }
}

// Distances 127 and 128 straddle the one-byte lane limit: labels whose
// largest distance is 127 freeze at width 1 (so 127 + 127 must read 254,
// not a sign-extended negative), one distance of 128 moves the whole
// store to width 4, and at either width every kernel agrees with brute
// force and QueryLabelHalves. The 4-byte rounds mix in distances near
// kInfDistance, so the saturation corner runs at the wider width too.
TEST(QueryKernelTest, AgreementAtBothLaneWidths) {
  Rng rng(2024);
  const size_t sizes[] = {1, 7, 16, 17, 40, 130};
  for (const Distance largest : {Distance{127}, Distance{128}}) {
    const uint32_t width = largest <= kMaxNarrowDistance ? 1 : 4;
    for (const size_t la : sizes) {
      for (const size_t lb : sizes) {
        for (int round = 0; round < 6; ++round) {
          LabelVector a = RandomLabel(&rng, 160, la, largest);
          LabelVector b = RandomLabel(&rng, 160, lb, largest);
          if (a.empty()) a.push_back({0, largest});
          a[rng.Below(a.size())].dist = largest;
          for (LabelEntry& e : b) {
            if (rng.Below(3) == 0) e.dist = largest;
            if (width == 4 && rng.Below(5) == 0) {
              e.dist = kInfDistance - static_cast<Distance>(rng.Below(4)) - 1;
            }
          }
          ASSERT_EQ(FlatLabelStore::Build({a}, {b}, true).dist_width(), width);
          ExpectAllKernelsAgree(a, b, "width " + std::to_string(width) +
                                          " sizes " + std::to_string(la) +
                                          "x" + std::to_string(lb));
        }
      }
    }
  }
  // The largest sums each width holds exactly.
  const LabelVector top127{{3, 127}, {9, 127}};
  ExpectAllKernelsAgree(top127, top127, "127 + 127");
  const LabelVector top128{{3, 128}, {9, 128}};
  ExpectAllKernelsAgree(top128, top128, "128 + 128");
}

TEST(QueryKernelTest, FlatHalvesMatchSpanHalves) {
  Rng rng(1234);
  const VertexId nv = 40;
  for (const Distance max_dist : {Distance{50}, Distance{1000}}) {
    for (int round = 0; round < 30; ++round) {
      std::vector<LabelVector> out(nv), in(nv);
      for (VertexId v = 0; v < nv; ++v) {
        out[v] = RandomLabel(&rng, nv, 12, max_dist);
        in[v] = RandomLabel(&rng, nv, 12, max_dist);
      }
      const FlatLabelStore store = FlatLabelStore::Build(out, in, true);
      for (const QueryKernel* kernel : SupportedQueryKernels()) {
        for (int q = 0; q < 50; ++q) {
          const VertexId s = static_cast<VertexId>(rng.Below(nv));
          const VertexId t = static_cast<VertexId>(rng.Below(nv));
          EXPECT_EQ(QueryFlatHalves(store.Out(s), store.In(t), s, t, *kernel),
                    QueryLabelHalves(out[s], in[t], s, t))
              << "kernel=" << kernel->name << " width=" << store.dist_width()
              << " s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST(QueryKernelTest, LookupPivotFlatMatchesSpanLookup) {
  Rng rng(99);
  for (const Distance max_dist : {Distance{50}, Distance{300}}) {
    for (int round = 0; round < 100; ++round) {
      const LabelVector label = RandomLabel(&rng, 80, 30, max_dist);
      const FlatLabelStore store =
          FlatLabelStore::Build({label}, {}, /*directed=*/false);
      for (VertexId probe = 0; probe < 85; ++probe) {
        EXPECT_EQ(LookupPivotFlat(store.Out(0), probe),
                  LookupPivot(label, probe))
            << "round " << round << " probe " << probe;
      }
    }
  }
}

}  // namespace
}  // namespace hopdb
