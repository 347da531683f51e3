// Scalar-vs-SIMD agreement for the query kernels: every kernel the CPU
// supports must return bit-identical distances on randomized labels —
// including the kInfDistance saturation corner when d1 + d2 overflows
// uint32 — and so must the span-based QueryLabelHalves merge, which the
// packed query path must also match, at both distance-lane widths
// (one-byte lanes up to distance 127, 4-byte lanes from 128). The packed
// store puts the next slot's entries (or the all-ones tail) right after
// each label, where the AVX2 kernel's block loads read them: those lanes
// must never change an answer.

#include <gtest/gtest.h>

#include <algorithm>
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

/// Every kernel's answer on a and b equals IntersectLabels, with a and b
/// as the views `store` holds at slots `slot_a` and `slot_b`.
void ExpectKernelsMatchIntersect(const FlatLabelStore& store, size_t slot_a,
                                 size_t slot_b, const LabelVector& a,
                                 const LabelVector& b,
                                 const std::string& context) {
  const LabelSetView view = store.view();
  const FlatLabelStore::View va = view.Slot(slot_a);
  const FlatLabelStore::View vb = view.Slot(slot_b);
  ASSERT_EQ(va.size, a.size()) << context;
  ASSERT_EQ(vb.size, b.size()) << context;
  const Distance want = IntersectLabels(a, b);
  for (const QueryKernel* kernel : SupportedQueryKernels()) {
    ASSERT_EQ(kernel->intersect_blocked(va, vb), want)
        << context << " kernel=" << kernel->name;
    ASSERT_EQ(kernel->intersect_blocked(vb, va), want)
        << context << " swapped, kernel=" << kernel->name;
  }
}

void ExpectAllKernelsAgree(const LabelVector& a, const LabelVector& b,
                           const std::string& context) {
  ASSERT_EQ(IntersectLabels(a, b), BruteIntersect(a, b)) << context;
  // One directed vertex: a is its out-label, b its in-label, so the
  // lanes past a's end hold b's entries and those past b's the tail.
  ExpectKernelsMatchIntersect(FlatLabelStore::Build({a}, {b}, true), 0, 1, a,
                              b, context);
  // Endpoints outside the pivot space: the trivial probes miss.
  EXPECT_EQ(QueryLabelHalves(a, b, 1u << 30, 1u << 31), IntersectLabels(a, b))
      << context;
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

/// A label of `len` entries over pivots [0, 48), distances in [1, 50],
/// or [1, 400] (4-byte lanes) when `wide`.
LabelVector LabelOfLength(Rng* rng, size_t len, bool wide) {
  std::vector<VertexId> pivots(48);
  for (VertexId p = 0; p < pivots.size(); ++p) pivots[p] = p;
  for (size_t i = 0; i < len; ++i) {
    std::swap(pivots[i], pivots[i + rng->Below(pivots.size() - i)]);
  }
  pivots.resize(len);
  std::sort(pivots.begin(), pivots.end());
  LabelVector label;
  const uint64_t max_dist = wide ? 400 : 50;
  for (const VertexId p : pivots) {
    label.push_back({p, static_cast<Distance>(rng->Uniform(1, max_dist))});
  }
  return label;
}

// Every pair of label lengths 0..40 — every position of a label's end
// within a 16-lane block and within an 8-lane register — at both lane
// widths. Directed, a's lanes run on into b's slot and b's into the
// tail; undirected (slots b, a), the other way round.
TEST(QueryKernelTest, EveryLengthPairMatchesIntersectLabels) {
  Rng rng(4040);
  for (const bool wide : {false, true}) {
    for (size_t la = 0; la <= 40; ++la) {
      for (size_t lb = 0; lb <= 40; ++lb) {
        const LabelVector a = LabelOfLength(&rng, la, wide);
        const LabelVector b = LabelOfLength(&rng, lb, wide);
        const std::string context = std::string(wide ? "wide " : "narrow ") +
                                    std::to_string(la) + "x" +
                                    std::to_string(lb);
        const FlatLabelStore directed = FlatLabelStore::Build({a}, {b}, true);
        ExpectKernelsMatchIntersect(directed, 0, 1, a, b,
                                    context + " directed");
        const FlatLabelStore undirected =
            FlatLabelStore::Build({b, a}, {}, false);
        ExpectKernelsMatchIntersect(undirected, 1, 0, a, b,
                                    context + " undirected");
      }
    }
  }
}

// The lanes past a label's end hold the next slot's entries. Here each
// label is followed by a slot holding the OTHER side's pivots at
// distance 1, smaller than any real sum, so a kernel that read those
// lanes as a's or b's entries would answer 2 (or a finite distance for
// disjoint labels, whose answer is kInfDistance). Both labels are also
// run as the store's last slot, whose block loads read the tail.
TEST(QueryKernelTest, LanesPastALabelsEndNeverMatch) {
  Rng rng(5150);
  for (const bool wide : {false, true}) {
    for (size_t la = 1; la <= 40; ++la) {
      for (size_t lb = 1; lb <= 40; ++lb) {
        LabelVector a = LabelOfLength(&rng, la, wide);
        LabelVector b = LabelOfLength(&rng, lb, wide);
        for (LabelEntry& e : a) e.dist += 10;
        for (LabelEntry& e : b) e.dist += 10;
        if (lb % 3 == 0) {
          // Disjoint pivots: odd on one side, even on the other.
          for (LabelEntry& e : a) e.pivot = 2 * e.pivot + 1;
          for (LabelEntry& e : b) e.pivot = 2 * e.pivot;
        }
        const auto bait = [](const LabelVector& other) {
          LabelVector out = other;
          for (LabelEntry& e : out) e.dist = 1;
          return out;
        };
        const std::string context = std::string(wide ? "wide " : "narrow ") +
                                    std::to_string(la) + "x" +
                                    std::to_string(lb);
        // Slots: a, bait(b), b, bait(a): each label's next slot baits it.
        const FlatLabelStore baited =
            FlatLabelStore::Build({a, bait(b), b, bait(a)}, {}, false);
        ExpectKernelsMatchIntersect(baited, 0, 2, a, b, context + " baited");
        // Slots: bait(b), a, bait(a), b: b last, its loads reach the tail.
        const FlatLabelStore b_last =
            FlatLabelStore::Build({bait(b), a, bait(a), b}, {}, false);
        ExpectKernelsMatchIntersect(b_last, 1, 3, a, b, context + " b last");
        // And a last.
        const FlatLabelStore a_last =
            FlatLabelStore::Build({bait(a), b, bait(b), a}, {}, false);
        ExpectKernelsMatchIntersect(a_last, 3, 1, a, b, context + " a last");
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
