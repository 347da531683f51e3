#include <gtest/gtest.h>

#include <set>

#include "util/cli.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hopdb {
namespace {

TEST(RandomTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(13), 13u);
  }
}

TEST(RandomTest, BelowCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, UniformInclusive) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    uint64_t v = rng.Uniform(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RandomTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, DeriveSeedDecorrelates) {
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(1, 1));
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
  EXPECT_EQ(DeriveSeed(5, 3), DeriveSeed(5, 3));
}

TEST(StringUtilTest, HumanCount) {
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(5300), "5.30K");
  EXPECT_EQ(HumanCount(5300000), "5.30M");
  EXPECT_EQ(HumanCount(168000000000ull), "168G");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(9ull << 30), "9.00 GB");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(StringUtilTest, HumanDuration) {
  EXPECT_EQ(HumanDuration(0.0000012), "1us");
  EXPECT_EQ(HumanDuration(0.0123), "12.3ms");
  EXPECT_EQ(HumanDuration(4.5), "4.50s");
  EXPECT_EQ(HumanDuration(125), "2m05s");
}

TEST(StringUtilTest, SplitAndTrim) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  auto keep = SplitString("a,,b", ',', /*skip_empty=*/false);
  EXPECT_EQ(keep.size(), 3u);
  EXPECT_EQ(TrimString("  x y \t\n"), "x y");
  EXPECT_EQ(TrimString("   "), "");
}

TEST(StringUtilTest, ParseUint64) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("12345", &v));
  EXPECT_EQ(v, 12345u);
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("12a", &v));
  EXPECT_FALSE(ParseUint64("-3", &v));
  EXPECT_FALSE(ParseUint64("99999999999999999999999", &v));  // overflow
}

TEST(StringUtilTest, ParseDouble) {
  double d = 0;
  EXPECT_TRUE(ParseDouble("2.5", &d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_FALSE(ParseDouble("2.5x", &d));
  EXPECT_FALSE(ParseDouble("", &d));
  // Non-finite values parse with strtod but are refused.
  for (const char* bad : {"nan", "inf", "-inf", "1e999"}) {
    EXPECT_FALSE(ParseDouble(bad, &d)) << bad;
  }
}

TEST(TimerTest, StopwatchAdvances) {
  Stopwatch w;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  (void)sink;
  EXPECT_GT(w.Seconds(), 0.0);
  EXPECT_GT(w.Micros(), w.Millis());
}

TEST(TimerTest, DeadlineDisabled) {
  Deadline d(0);
  EXPECT_FALSE(d.enabled());
  EXPECT_FALSE(d.Exceeded());
  EXPECT_GT(d.RemainingSeconds(), 1e10);
}

TEST(TimerTest, DeadlineExceeds) {
  Deadline d(1e-9);
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  (void)sink;
  EXPECT_TRUE(d.enabled());
  EXPECT_TRUE(d.Exceeded());
}

TEST(CliTest, ParsesFlagsAndPositional) {
  CliFlags flags;
  flags.Define("scale", "1.0", "scale factor");
  flags.Define("full", "false", "run everything");
  flags.Define("name", "x", "a name");
  const char* argv[] = {"prog", "--scale=2.5", "--full", "--name", "enron",
                        "pos1"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale").ValueOrDie(), 2.5);
  EXPECT_TRUE(flags.GetBool("full").ValueOrDie());
  EXPECT_EQ(flags.GetString("name"), "enron");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(CliTest, UnknownFlagFails) {
  CliFlags flags;
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(CliTest, HelpRequested) {
  CliFlags flags;
  flags.Define("x", "1", "a flag");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(flags.Usage("test").find("--x"), std::string::npos);
}

TEST(CliTest, DefaultsApply) {
  CliFlags flags;
  flags.Define("n", "42", "count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt("n"), 42);
  EXPECT_EQ(flags.GetUint("n").ValueOrDie(), 42u);
}

}  // namespace
}  // namespace hopdb
