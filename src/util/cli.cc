#include "util/cli.h"

#include <cstdint>
#include <cstdlib>
#include <string>

#include "util/logging.h"
#include "util/string_util.h"

namespace hopdb {

void CliFlags::Define(const std::string& name,
                      const std::string& default_value,
                      const std::string& help) {
  Flag f;
  f.value = default_value;
  f.default_value = default_value;
  f.help = help;
  flags_[name] = f;
}

void CliFlags::DefineRepeatable(const std::string& name,
                                const std::string& help) {
  Flag f;
  f.help = help;
  f.repeatable = true;
  flags_[name] = f;
}

Status CliFlags::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body == "help") {
      help_requested_ = true;
      continue;
    }
    std::string name;
    std::string value;
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
      auto it = flags_.find(name);
      if (it == flags_.end()) {
        return Status::InvalidArgument("unknown flag --" + name);
      }
      // Boolean flags may omit the value ("--full"). Other flags take the
      // next argv entry.
      const std::string& dflt = it->second.default_value;
      if (dflt == "true" || dflt == "false") {
        value = "true";
      } else {
        if (i + 1 >= argc) {
          return Status::InvalidArgument("flag --" + name + " needs a value");
        }
        value = argv[++i];
      }
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    it->second.value = value;
    if (it->second.repeatable) it->second.values.push_back(value);
  }
  return Status::OK();
}

std::string CliFlags::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  HOPDB_CHECK(it != flags_.end()) << "undefined flag " << name;
  return it->second.value;
}

int64_t CliFlags::GetInt(const std::string& name) const {
  return static_cast<int64_t>(std::strtoll(GetString(name).c_str(), nullptr, 10));
}

Result<uint64_t> CliFlags::GetUint(const std::string& name) const {
  const std::string value = GetString(name);
  uint64_t v = 0;
  if (!ParseUint64(value, &v)) {
    return Status::InvalidArgument("flag --" + name +
                                   " wants a non-negative integer, got '" +
                                   value + "'");
  }
  return v;
}

Result<double> CliFlags::GetDouble(const std::string& name) const {
  const std::string value = GetString(name);
  double v = 0;
  if (!ParseDouble(value, &v)) {
    return Status::InvalidArgument("flag --" + name + " wants a number, got '" +
                                   value + "'");
  }
  return v;
}

const std::vector<std::string>& CliFlags::GetStrings(
    const std::string& name) const {
  auto it = flags_.find(name);
  HOPDB_CHECK(it != flags_.end()) << "undefined flag " << name;
  HOPDB_CHECK(it->second.repeatable) << "flag --" << name
                                     << " is not repeatable";
  return it->second.values;
}

Result<bool> CliFlags::GetBool(const std::string& name) const {
  const std::string v = GetString(name);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return Status::InvalidArgument("flag --" + name +
                                 " wants true/false/1/0/yes/no/on/off, got '" +
                                 v + "'");
}

std::string CliFlags::Usage(const std::string& program_description) const {
  std::string out = program_description + "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out += "  --" + name +
           (flag.repeatable
                ? " (repeatable)"
                : " (default: " +
                      (flag.default_value.empty() ? "\"\""
                                                  : flag.default_value) +
                      ")") +
           "\n";
    out += "      " + flag.help + "\n";
  }
  return out;
}

}  // namespace hopdb
