#include "util/build_info.h"

// build_sha.h defines HOPDB_GIT_SHA. CMakeLists.txt regenerates it on
// every build, rewriting it only when the sha changes, so a new commit
// recompiles only this file. HOPDB_VERSION is a compile definition on
// this one translation unit.
#include "build_sha.h"

namespace hopdb {

const char* BuildGitSha() { return HOPDB_GIT_SHA; }

const char* BuildVersion() {
#ifdef HOPDB_VERSION
  return HOPDB_VERSION;
#else
  return "0.0.0";
#endif
}

}  // namespace hopdb
