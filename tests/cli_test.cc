// hopdb_cli command plumbing: gen -> build -> query -> stats round trips
// through real files, plus usage-error and help paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph_io.h"
#include "hli1_files.h"
#include "hopdb.h"
#include "io/temp_dir.h"
#include "tools/commands.h"
#include "util/serde.h"
#include "util/string_util.h"

namespace hopdb {
namespace {

/// Runs the CLI with the given argument strings; returns the exit code and
/// captures stdout/stderr.
int RunTool(std::vector<std::string> args, std::string* stdout_text = nullptr,
        std::string* stderr_text = nullptr) {
  args.insert(args.begin(), "hopdb_cli");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  std::ostringstream out, err;
  const int code =
      RunCli(static_cast<int>(argv.size()), argv.data(), out, err);
  if (stdout_text != nullptr) *stdout_text = out.str();
  if (stderr_text != nullptr) *stderr_text = err.str();
  return code;
}

/// The names of the files in `dir`, sorted.
std::vector<std::string> FileNames(const TempDir& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(CliTest, NoArgumentsPrintsUsageAndFails) {
  std::string err;
  EXPECT_EQ(RunTool({}, nullptr, &err), 1);
  EXPECT_NE(err.find("usage"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  std::string out;
  EXPECT_EQ(RunTool({"help"}, &out), 0);
  EXPECT_NE(out.find("commands"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  std::string err;
  EXPECT_EQ(RunTool({"frobnicate"}, nullptr, &err), 1);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(CliTest, SubcommandHelpListsFlags) {
  std::string out;
  EXPECT_EQ(RunTool({"build", "--help"}, &out), 0);
  EXPECT_NE(out.find("--graph"), std::string::npos);
  EXPECT_NE(out.find("--mode"), std::string::npos);
}

TEST(CliTest, GenRequiresOut) {
  std::string err;
  EXPECT_EQ(RunTool({"gen"}, nullptr, &err), 1);
  EXPECT_NE(err.find("--out"), std::string::npos);
}

TEST(CliTest, GenRejectsUnknownType) {
  TempDir dir = TempDir::Create("cli_test").ValueOrDie();
  std::string err;
  EXPECT_EQ(RunTool({"gen", "--type", "noexist", "--out", dir.File("g.txt")},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("unknown --type"), std::string::npos);
}

TEST(CliTest, FullPipelineTextGraph) {
  TempDir dir = TempDir::Create("cli_test").ValueOrDie();
  const std::string graph = dir.File("g.txt");
  const std::string index = dir.File("g.hli");

  std::string out;
  ASSERT_EQ(RunTool({"gen", "--type", "glp", "--n", "800", "--avg-degree", "6",
                 "--seed", "5", "--out", graph},
                &out),
            0);
  EXPECT_NE(out.find("generated glp graph"), std::string::npos);

  ASSERT_EQ(RunTool({"build", "--graph", graph, "--mode", "hybrid", "--threads",
                 "2", "--out", index},
                &out),
            0);
  EXPECT_NE(out.find("built index"), std::string::npos);
  EXPECT_NE(out.find("iterations"), std::string::npos);

  ASSERT_EQ(RunTool({"query", "--index", index, "--src", "0", "--dst", "1"},
                &out),
            0);
  EXPECT_NE(out.find("dist(0, 1) = "), std::string::npos);

  ASSERT_EQ(RunTool({"query", "--index", index, "--random", "200"}, &out), 0);
  EXPECT_NE(out.find("200 random queries"), std::string::npos);

  ASSERT_EQ(RunTool({"stats", "--index", index}, &out), 0);
  EXPECT_NE(out.find("label entries"), std::string::npos);
  EXPECT_NE(out.find("avg |label|"), std::string::npos);
  EXPECT_NE(out.find("paper size"), std::string::npos);
  // The size on disk, beside the memory and paper sizes.
  const std::string file_size = "  file size       ";
  const size_t at = out.find(file_size);
  ASSERT_NE(at, std::string::npos) << out;
  uint64_t bytes = 0;
  ASSERT_TRUE(ParseUint64(
      out.substr(at + file_size.size(),
                 out.find(' ', at + file_size.size()) - at - file_size.size()),
      &bytes))
      << out;
  EXPECT_EQ(bytes, FileSizeBytes(index).ValueOrDie());
  EXPECT_NE(out.find(" bytes/entry)", at), std::string::npos) << out;
}

// A text edge list's vertices are numbered in first-appearance order,
// so query ids name the file's vertices in the order they first appear:
// on the path 0 -5- 1 -5- 2, dist(0, 2) is 10 and dist(1, 2) is 5.
TEST(CliTest, TextGraphIdsFollowFirstAppearance) {
  TempDir dir = TempDir::Create("cli_test").ValueOrDie();
  const std::string graph = dir.File("path.txt");
  const std::string index = dir.File("path.hli");
  ASSERT_TRUE(WriteStringToFile(graph, "0 1 5\n1 2 5\n").ok());
  std::string out;
  ASSERT_EQ(RunTool({"build", "--graph", graph, "--weighted", "--out", index},
                    &out),
            0)
      << out;
  ASSERT_EQ(RunTool({"query", "--index", index, "--src", "0", "--dst", "2"},
                    &out),
            0);
  EXPECT_NE(out.find("dist(0, 2) = 10"), std::string::npos) << out;
  ASSERT_EQ(RunTool({"query", "--index", index, "--src", "1", "--dst", "2"},
                    &out),
            0);
  EXPECT_NE(out.find("dist(1, 2) = 5"), std::string::npos) << out;
}

TEST(CliTest, FullPipelineBinaryDirectedWeighted) {
  TempDir dir = TempDir::Create("cli_test").ValueOrDie();
  const std::string graph = dir.File("g.hgr");
  const std::string index = dir.File("g.hli");

  std::string out;
  ASSERT_EQ(RunTool({"gen", "--type", "er", "--n", "400", "--avg-degree", "4",
                 "--directed", "--weighted", "--seed", "8", "--out", graph},
                &out),
            0);
  // The binary graph file round-trips through the loader.
  auto edges = ReadBinaryGraph(graph);
  ASSERT_TRUE(edges.ok());
  EXPECT_TRUE(edges->directed());
  EXPECT_TRUE(edges->weighted());

  ASSERT_EQ(RunTool({"build", "--graph", graph, "--order", "betweenness",
                 "--out", index},
                &out),
            0);
  ASSERT_EQ(RunTool({"query", "--index", index, "--random", "100"}, &out), 0);
}

TEST(CliTest, UpdateAppliesOpsOffline) {
  TempDir dir = TempDir::Create("cli_update").ValueOrDie();
  const std::string graph = dir.File("g.hgr");
  const std::string index = dir.File("g.hli");

  std::string out;
  ASSERT_EQ(RunTool({"gen", "--type", "glp", "--n", "300", "--avg-degree",
                 "5", "--seed", "11", "--out", graph},
                &out),
            0);
  ASSERT_EQ(RunTool({"build", "--graph", graph, "--out", index}, &out), 0);
  // One index file: labels and ranks both live in HLI1.
  EXPECT_EQ(FileNames(dir), (std::vector<std::string>{"g.hgr", "g.hli"}));

  // Insert edge {0, 1} (a no-op if the generator already placed it);
  // either way the repaired index must answer dist(0, 1) = 1.
  const std::string ops1 = dir.File("ops1.txt");
  ASSERT_TRUE(WriteStringToFile(ops1,
                                "# shortcut the pair\n"
                                "ADDEDGE 0 1\n")
                  .ok());
  const std::string index2 = dir.File("g2.hli");
  const std::string graph2 = dir.File("g2.hgr");
  ASSERT_EQ(RunTool({"update", "--index", index, "--graph", graph, "--ops",
                 ops1, "--out", index2, "--out-graph", graph2},
                &out),
            0);
  EXPECT_NE(out.find("applied"), std::string::npos) << out;
  EXPECT_NE(out.find("saved to"), std::string::npos);
  EXPECT_EQ(FileNames(dir),
            (std::vector<std::string>{"g.hgr", "g.hli", "g2.hgr", "g2.hli",
                                      "ops1.txt"}));
  ASSERT_EQ(RunTool({"query", "--index", index2, "--src", "0", "--dst", "1"},
                &out),
            0);
  EXPECT_NE(out.find("dist(0, 1) = 1"), std::string::npos) << out;

  // Chain a second run off the updated pair of files: the delete is
  // guaranteed valid now, and the distance must grow past 1.
  const std::string ops2 = dir.File("ops2.txt");
  ASSERT_TRUE(WriteStringToFile(ops2, "DELEDGE 0 1\n").ok());
  const std::string index3 = dir.File("g3.hli");
  ASSERT_EQ(RunTool({"update", "--index", index2, "--graph", graph2, "--ops",
                 ops2, "--out", index3},
                &out),
            0);
  ASSERT_EQ(RunTool({"query", "--index", index3, "--src", "0", "--dst", "1"},
                &out),
            0);
  EXPECT_EQ(out.find("dist(0, 1) = 1\n"), std::string::npos) << out;
}

TEST(CliTest, UpdateRequiresFlagsAndValidOps) {
  TempDir dir = TempDir::Create("cli_update_err").ValueOrDie();
  std::string err;
  EXPECT_EQ(RunTool({"update"}, nullptr, &err), 1);
  EXPECT_NE(err.find("--ops"), std::string::npos);

  const std::string graph = dir.File("g.hgr");
  const std::string index = dir.File("g.hli");
  ASSERT_EQ(RunTool({"gen", "--type", "glp", "--n", "100", "--avg-degree",
                 "4", "--seed", "3", "--out", graph}),
            0);
  ASSERT_EQ(RunTool({"build", "--graph", graph, "--out", index}), 0);
  // A syntax error reports its line number and applies nothing.
  const std::string bad_ops = dir.File("bad.txt");
  ASSERT_TRUE(WriteStringToFile(bad_ops, "ADDEDGE 1 2\nFROB 3 4\n").ok());
  EXPECT_EQ(RunTool({"update", "--index", index, "--graph", graph, "--ops",
                 bad_ops},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  // Out-of-range ids are caught before any op is applied.
  const std::string oob_ops = dir.File("oob.txt");
  ASSERT_TRUE(WriteStringToFile(oob_ops, "ADDEDGE 0 5000\n").ok());
  EXPECT_EQ(RunTool({"update", "--index", index, "--graph", graph, "--ops",
                 oob_ops},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(CliTest, QueryRejectsOutOfRangeVertex) {
  TempDir dir = TempDir::Create("cli_test").ValueOrDie();
  const std::string graph = dir.File("g.txt");
  const std::string index = dir.File("g.hli");
  ASSERT_EQ(RunTool({"gen", "--type", "glp", "--n", "300", "--out", graph}), 0);
  ASSERT_EQ(RunTool({"build", "--graph", graph, "--out", index}), 0);
  std::string err;
  EXPECT_EQ(RunTool({"query", "--index", index, "--src", "0", "--dst",
                 "999999"},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("out of range"), std::string::npos);
}

TEST(CliTest, BuildRejectsBadMode) {
  TempDir dir = TempDir::Create("cli_test").ValueOrDie();
  const std::string graph = dir.File("g.txt");
  ASSERT_EQ(RunTool({"gen", "--type", "glp", "--n", "200", "--out", graph}), 0);
  std::string err;
  EXPECT_EQ(RunTool({"build", "--graph", graph, "--mode", "warp", "--out",
                 dir.File("i.hli")},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("unknown --mode"), std::string::npos);
}

// Flag values are checked before any input is read, so a misspelt flag
// reports itself at once, even when the input it names is missing too.
TEST(CliTest, FlagErrorsComeBeforeInputsAreRead) {
  std::string err;
  EXPECT_EQ(RunTool({"build", "--graph", "/nonexistent/g.txt", "--order",
                     "bogus", "--out", "/nonexistent/i.hli"},
                    nullptr, &err),
            1);
  EXPECT_NE(err.find("--order"), std::string::npos) << err;
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
  EXPECT_EQ(err.find("IOError"), std::string::npos) << err;

  err.clear();
  EXPECT_EQ(RunTool({"query", "--index", "/nonexistent/idx", "--src", "x1",
                     "--dst", "2"},
                    nullptr, &err),
            1);
  EXPECT_NE(err.find("flag --src wants a non-negative integer"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("IOError"), std::string::npos) << err;
}

TEST(CliTest, QueryMissingIndexFileFails) {
  std::string err;
  EXPECT_EQ(RunTool({"query", "--index", "/nonexistent/idx", "--random", "5"},
                nullptr, &err),
            1);
}

// A directory where an index file is expected is an error line and exit
// 1, not an abort.
TEST(CliTest, DirectoryAsIndexFails) {
  TempDir dir = TempDir::Create("cli_test").ValueOrDie();
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"stats", "--index", dir.path()},
        std::vector<std::string>{"query", "--index", dir.path(), "--src",
                                 "0", "--dst", "1"}}) {
    std::string err;
    EXPECT_EQ(RunTool(args, nullptr, &err), 1) << args[0];
    EXPECT_NE(err.find("hopdb_cli " + args[0] + ": IOError"),
              std::string::npos)
        << err;
  }
}

// All argument errors go through one usage-printing path: nonzero exit,
// the status message, and the subcommand's flag table on stderr.
TEST(CliTest, ArgumentErrorsPrintUsageWithFlagTable) {
  std::string err;
  // Missing required flag.
  EXPECT_EQ(RunTool({"gen"}, nullptr, &err), 1);
  EXPECT_NE(err.find("usage: hopdb_cli gen"), std::string::npos);
  EXPECT_NE(err.find("--out"), std::string::npos);
  EXPECT_NE(err.find("--avg-degree"), std::string::npos);

  // Flag given without its value.
  err.clear();
  EXPECT_EQ(RunTool({"build", "--graph"}, nullptr, &err), 1);
  EXPECT_NE(err.find("needs a value"), std::string::npos);
  EXPECT_NE(err.find("usage: hopdb_cli build"), std::string::npos);

  // Unknown flag.
  err.clear();
  EXPECT_EQ(RunTool({"query", "--frobnicate", "1"}, nullptr, &err), 1);
  EXPECT_NE(err.find("unknown flag"), std::string::npos);
  EXPECT_NE(err.find("usage: hopdb_cli query"), std::string::npos);

  // Bad flag value surfaced by a subcommand parser.
  err.clear();
  EXPECT_EQ(RunTool({"serve"}, nullptr, &err), 1);
  EXPECT_NE(err.find("serve requires --index"), std::string::npos);
  EXPECT_NE(err.find("usage: hopdb_cli serve"), std::string::npos);
  EXPECT_NE(err.find("--cache-capacity"), std::string::npos);
}

// A typed flag whose value does not parse takes the same path: exit 1,
// InvalidArgument naming the flag, the flag table — and no output file.
TEST(CliTest, MalformedFlagValuesPrintUsageWithFlagTable) {
  TempDir dir = TempDir::Create("cli_test").ValueOrDie();
  const std::string graph = dir.File("g.txt");
  for (const char* bad : {"--n=abc", "--n=4294967306", "--avg-degree=fast",
                          "--avg-degree=nan", "--directed=maybe"}) {
    std::string err;
    EXPECT_EQ(RunTool({"gen", bad, "--out", graph}, nullptr, &err), 1) << bad;
    const std::string flag(bad, std::string(bad).find('='));
    EXPECT_NE(err.find("hopdb_cli gen: InvalidArgument: flag " + flag),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("usage: hopdb_cli gen"), std::string::npos) << err;
    EXPECT_FALSE(std::filesystem::exists(graph)) << bad;
  }
}

// A value that parses but does not fit the option it sets is refused the
// same way, before any index loads, eval spec is read or graph is made.
TEST(CliTest, OutOfRangeFlagValuesPrintUsageWithFlagTable) {
  const std::vector<std::vector<std::string>> cases = {
      {"serve", "--index", "/nonexistent/idx", "--port", "65536"},
      {"serve", "--index", "/nonexistent/idx", "--batch", "4294967296"},
      {"eval", "--print-spec", "true", "--scale", "inf"},
      {"eval", "--print-spec", "true", "--scale", "101"},
      {"serve", "--index", "/nonexistent/idx", "--duration", "1e300"},
      {"serve", "--index", "/nonexistent/idx", "--duration", "-1"},
      {"gen", "--out", "/nonexistent/g.txt", "--weighted", "true", "--wmin",
       "0"},
  };
  for (const std::vector<std::string>& args : cases) {
    const std::string& command = args[0];
    const std::string& flag = args[args.size() - 2];
    std::string err;
    EXPECT_EQ(RunTool(args, nullptr, &err), 1) << flag;
    EXPECT_NE(err.find("hopdb_cli " + command + ": InvalidArgument: flag " +
                       flag),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("usage: hopdb_cli " + command), std::string::npos)
        << err;
  }
}

// An HGR1 file whose header claims 10^12 edges is refused with a
// Status (exit 1), not by aborting in an allocation it sized.
TEST(CliTest, BuildRefusesCraftedBinaryGraph) {
  TempDir dir = TempDir::Create("cli_test").ValueOrDie();
  const std::string graph = dir.File("crafted.hgr");
  std::string bytes = "HGR1";
  PutU32(&bytes, 1);
  PutU32(&bytes, 4);
  PutU64(&bytes, uint64_t{1000000000000});
  PutU64(&bytes, 0);
  ASSERT_EQ(bytes.size(), 28u);
  ASSERT_TRUE(WriteStringToFile(graph, bytes).ok());
  std::string err;
  EXPECT_EQ(RunTool({"build", "--graph", graph, "--out", dir.File("g.hli")},
                    nullptr, &err),
            1);
  EXPECT_NE(err.find("InvalidArgument"), std::string::npos) << err;
}

TEST(CliTest, NonArgumentErrorsSkipTheFlagTable) {
  // A runtime (IO) failure reports the status but not the flag table.
  std::string err;
  EXPECT_EQ(RunTool({"query", "--index", "/nonexistent/idx", "--random", "5"},
                nullptr, &err),
            1);
  EXPECT_EQ(err.find("usage: hopdb_cli query"), std::string::npos);

  // So does a refused input file: its InvalidArgument is no flag mistake.
  TempDir dir = TempDir::Create("cli_refused").ValueOrDie();
  const std::string graph = dir.File("g.hgr");
  const std::string index = dir.File("g.hli");
  ASSERT_EQ(RunTool({"gen", "--type", "glp", "--n", "100", "--avg-degree",
                     "4", "--seed", "3", "--out", graph}),
            0);
  ASSERT_EQ(RunTool({"build", "--graph", graph, "--out", index}), 0);
  std::string file;
  ASSERT_TRUE(ReadFileToString(index, &file).ok());
  const std::string truncated = dir.File("truncated.hli");
  ASSERT_TRUE(WriteStringToFile(truncated, file.substr(0, file.size() / 2))
                  .ok());
  auto loaded = HopDbIndex::Load(index);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const std::string fixed_width = dir.File("fixed_width.hli");
  ASSERT_TRUE(WriteStringToFile(fixed_width,
                                FixedWidthHli1(loaded->label_index(),
                                               &loaded->ranking().rank_to_orig))
                  .ok());
  std::string hgr1 = "HGR1";
  PutU32(&hgr1, 1);
  PutU32(&hgr1, 4);
  PutU64(&hgr1, uint64_t{1000000000000});
  PutU64(&hgr1, 0);
  const std::string crafted = dir.File("crafted.hgr");
  ASSERT_TRUE(WriteStringToFile(crafted, hgr1).ok());
  const std::string ops = dir.File("ops.txt");
  ASSERT_TRUE(WriteStringToFile(ops, "ADDEDGE 0 5000\n").ok());
  const struct {
    std::vector<std::string> args;
    const char* message;
  } cases[] = {
      {{"stats", "--index", truncated}, "checksum mismatch"},
      {{"stats", "--index", fixed_width}, "rebuild"},
      {{"build", "--graph", crafted, "--out", dir.File("c.hli")},
       "InvalidArgument"},
      {{"update", "--index", index, "--graph", graph, "--ops", ops},
       "out of range"},
  };
  for (const auto& c : cases) {
    const std::string& command = c.args[0];
    EXPECT_EQ(RunTool(c.args, nullptr, &err), 1) << c.args[2];
    EXPECT_NE(err.find("hopdb_cli " + command + ": InvalidArgument: "),
              std::string::npos)
        << err;
    EXPECT_NE(err.find(c.message), std::string::npos) << err;
    EXPECT_EQ(err.find("usage: hopdb_cli " + command), std::string::npos)
        << err;
  }
}

TEST(CliTest, ClientRequiresPort) {
  std::string err;
  EXPECT_EQ(RunTool({"client", "--cmd", "PING"}, nullptr, &err), 1);
  EXPECT_NE(err.find("client requires --port"), std::string::npos);
}

TEST(CliTest, ClientFailsCleanlyWhenServerAbsent) {
  // Port 1 on loopback: connection refused, reported as an IO error
  // without the flag table.
  std::string err;
  EXPECT_EQ(RunTool({"client", "--port", "1", "--cmd", "PING"}, nullptr,
                &err),
            1);
  EXPECT_NE(err.find("connect"), std::string::npos);
}

TEST(CliTest, ServeHelpListsServingFlags) {
  std::string out;
  EXPECT_EQ(RunTool({"serve", "--help"}, &out), 0);
  EXPECT_NE(out.find("--cache-capacity"), std::string::npos);
  EXPECT_NE(out.find("--queue-capacity"), std::string::npos);
  EXPECT_NE(out.find("--batch"), std::string::npos);
  EXPECT_NE(out.find("repeatable"), std::string::npos);
}

TEST(CliTest, ConvertRoundTripIsQueryIdentical) {
  TempDir dir = TempDir::Create("cli_convert").ValueOrDie();
  const std::string graph = dir.File("g.txt");
  const std::string index = dir.File("g.hli");
  const std::string hli2 = dir.File("g.hli2");

  std::string out;
  ASSERT_EQ(RunTool({"gen", "--type", "glp", "--n", "400", "--avg-degree",
                     "5", "--seed", "9", "--out", graph}),
            0);
  ASSERT_EQ(RunTool({"build", "--graph", graph, "--out", index}), 0);
  // convert --verify (the default) checksums the arenas and cross-checks
  // sampled queries against the input index; a nonzero exit here means
  // the round trip broke.
  ASSERT_EQ(RunTool({"convert", "--in", index, "--out", hli2}, &out), 0);
  EXPECT_NE(out.find("converted"), std::string::npos);
  EXPECT_NE(out.find("verified arena checksum"), std::string::npos);
  EXPECT_NE(out.find("HLI2"), std::string::npos);
}

// An index over no vertices: `query --random` has no pair to draw and
// refuses (it aborted on an out-of-range id), and `convert --verify`
// reports the zero queries it could run.
TEST(CliTest, EmptyIndexRefusesRandomQueriesAndConvertsWithNoSamples) {
  TempDir dir = TempDir::Create("cli_empty").ValueOrDie();
  const std::string graph = dir.File("empty.txt");
  const std::string index = dir.File("empty.hli");
  ASSERT_TRUE(WriteStringToFile(graph, "").ok());
  std::string out, err;
  ASSERT_EQ(RunTool({"build", "--graph", graph, "--out", index}, &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("|V|=0"), std::string::npos) << out;
  EXPECT_EQ(RunTool({"query", "--index", index, "--random", "5"}, &out, &err),
            1);
  EXPECT_NE(err.find("InvalidArgument"), std::string::npos) << err;
  ASSERT_EQ(RunTool({"convert", "--in", index, "--out", dir.File("e.hli2")},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("verified arena checksum + 0 sampled queries"),
            std::string::npos)
      << out;
}

TEST(CliTest, ConvertRequiresInAndOut) {
  std::string err;
  EXPECT_EQ(RunTool({"convert"}, nullptr, &err), 1);
  EXPECT_NE(err.find("--in"), std::string::npos);
  EXPECT_NE(err.find("--out"), std::string::npos);
}

TEST(CliTest, ConvertMissingInputFails) {
  TempDir dir = TempDir::Create("cli_convert_missing").ValueOrDie();
  std::string err;
  EXPECT_EQ(RunTool({"convert", "--in", dir.File("nope.hli"), "--out",
                     dir.File("out.hli2")},
                    nullptr, &err),
            1);
}

TEST(CliTest, ServeRejectsBadIndexSpecs) {
  std::string err;
  // No --index at all.
  EXPECT_EQ(RunTool({"serve"}, nullptr, &err), 1);
  EXPECT_NE(err.find("--index"), std::string::npos);
  // Two defaults.
  EXPECT_EQ(RunTool({"serve", "--index", "/tmp/a.hli", "--index",
                     "/tmp/b.hli"},
                    nullptr, &err),
            1);
  EXPECT_NE(err.find("exactly one default"), std::string::npos);
  // Named index with an empty path.
  EXPECT_EQ(RunTool({"serve", "--index", "road="}, nullptr, &err), 1);
  EXPECT_NE(err.find("empty path"), std::string::npos);
  // Malformed name.
  EXPECT_EQ(RunTool({"serve", "--index", "/tmp/a.hli", "--index",
                     "bad/name=/tmp/b.hli"},
                    nullptr, &err),
            1);
  // Only named indexes, no default.
  EXPECT_EQ(RunTool({"serve", "--index", "one=/tmp/a.hli"}, nullptr, &err),
            1);
  EXPECT_NE(err.find("exactly one default"), std::string::npos);
  // Duplicate names fail at flag parsing, before any server starts.
  EXPECT_EQ(RunTool({"serve", "--index", "/tmp/a.hli", "--index",
                     "road=/tmp/b.hli", "--index", "road=/tmp/c.hli"},
                    nullptr, &err),
            1);
  EXPECT_NE(err.find("given more than once"), std::string::npos);
}

}  // namespace
}  // namespace hopdb
