// Implementation of the hopdb_cli subcommands, kept in the library so
// tests can drive them directly. The binary in tools/hopdb_cli.cc is a
// two-line main().
//
// Subcommands:
//   gen     generate a synthetic graph (GLP / BA / ER) to an edge-list file
//   build   build a HopDb index from an edge-list file and save it
//   convert rewrite an HLI1 index as a memory-mappable HLI2 file
//   query   answer distance queries against a saved index
//   stats   print label statistics of a saved index (Table 7-style)
//   serve   serve one or more indexes over TCP
//           (DIST/BATCH/KNN/STATS/RELOAD/ATTACH/DETACH/USE protocol)
//   client  send protocol lines to a running server
//   help    usage
//
// All argument errors funnel through one usage-printing path in RunCli:
// the status message plus the subcommand's flag table go to `err` and the
// exit code is 1.

#ifndef HOPDB_TOOLS_COMMANDS_H_
#define HOPDB_TOOLS_COMMANDS_H_

#include <ostream>

namespace hopdb {

/// Runs `hopdb_cli argv[1] ...`; normal output goes to `out`, diagnostics
/// to `err`. Returns the process exit code (0 on success, 1 on usage or
/// runtime errors).
int RunCli(int argc, char** argv, std::ostream& out, std::ostream& err);

}  // namespace hopdb

#endif  // HOPDB_TOOLS_COMMANDS_H_
