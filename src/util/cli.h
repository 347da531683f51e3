// A tiny --flag=value / --flag value command-line parser for the bench and
// example binaries. Deliberately minimal: no subcommands, no config files.
//
//   CliFlags flags;
//   flags.Define("scale", "1", "dataset scale factor");
//   flags.Define("full", "false", "run the full (slow) dataset set");
//   HOPDB_CHECK(flags.Parse(argc, argv).ok());
//   double scale = flags.GetDouble("scale").ValueOrDie();

#ifndef HOPDB_UTIL_CLI_H_
#define HOPDB_UTIL_CLI_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace hopdb {

class CliFlags {
 public:
  /// Registers a flag with a default value and a help string.
  void Define(const std::string& name, const std::string& default_value,
              const std::string& help);

  /// Registers a flag that may be given multiple times; every occurrence
  /// is collected in order and read back with GetStrings. GetString on a
  /// repeatable flag returns the last occurrence (or "" when unset).
  void DefineRepeatable(const std::string& name, const std::string& help);

  /// Parses argv. Unknown flags are errors; positional args are collected.
  /// "--help" sets help_requested() and is not an error.
  Status Parse(int argc, char** argv);

  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  /// Typed reads. A value that does not parse is InvalidArgument naming
  /// the flag, so a command reports it like any other argument error.
  Result<uint64_t> GetUint(const std::string& name) const;
  Result<double> GetDouble(const std::string& name) const;
  /// true/1/yes/on are true; false/0/no/off are false.
  Result<bool> GetBool(const std::string& name) const;
  /// All occurrences of a repeatable flag, in command-line order (empty
  /// when the flag was never given).
  const std::vector<std::string>& GetStrings(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  bool help_requested() const { return help_requested_; }

  /// Renders "--name (default: v)  help" usage text.
  std::string Usage(const std::string& program_description) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
    bool repeatable = false;
    std::vector<std::string> values;  // repeatable flags only
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

}  // namespace hopdb

#endif  // HOPDB_UTIL_CLI_H_
