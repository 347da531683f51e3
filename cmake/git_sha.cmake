# Writes the short git sha of SOURCE_DIR's HEAD, or "unknown" outside a git
# checkout, into OUTPUT as the HOPDB_GIT_SHA define. The file is rewritten
# only when its content changes, so an unchanged sha recompiles nothing.
#
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> [-DGIT_EXECUTABLE=<git>]
#         -P cmake/git_sha.cmake

set(sha "unknown")
if(GIT_EXECUTABLE)
  execute_process(
    COMMAND ${GIT_EXECUTABLE} rev-parse --short HEAD
    WORKING_DIRECTORY ${SOURCE_DIR}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
  if(status EQUAL 0 AND out)
    set(sha "${out}")
  endif()
endif()

set(content "#define HOPDB_GIT_SHA \"${sha}\"\n")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT "${old}" STREQUAL "${content}")
  file(WRITE ${OUTPUT} "${content}")
endif()
