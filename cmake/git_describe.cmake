# Writes OUTPUT, a header that defines COLSGD_GIT_DESCRIBE as the
# `git describe --always --dirty` of SOURCE_DIR, or "unknown" outside a git
# checkout. Run at build time (cmake -P, src/obs/CMakeLists.txt); the file is
# rewritten only when its text changes, so an unchanged commit recompiles
# nothing.
execute_process(
  COMMAND git describe --always --dirty
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE describe
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0 OR describe STREQUAL "")
  set(describe unknown)
endif()
set(text "#define COLSGD_GIT_DESCRIBE \"${describe}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUTPUT} "${text}")
endif()
