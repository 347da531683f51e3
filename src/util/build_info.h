// Build provenance, surfaced by STATS (build_git_sha=...) and the
// Prometheus hopdb_build_info gauge so dashboards can correlate a
// latency change with the exact binary that caused it.

#ifndef HOPDB_UTIL_BUILD_INFO_H_
#define HOPDB_UTIL_BUILD_INFO_H_

namespace hopdb {

/// Short git commit sha of the checkout the binary was built from,
/// resolved at build time, or "unknown" outside a git checkout.
const char* BuildGitSha();

/// Project version (CMake PROJECT_VERSION).
const char* BuildVersion();

}  // namespace hopdb

#endif  // HOPDB_UTIL_BUILD_INFO_H_
