# Passes only if EXE, run with ARGS (a shell-style string), exits with
# status 2 and prints exactly one line starting with "error:" on stderr.
# An abort prints the same message but exits with a signal, so the status
# check is what tells a clean error from a crash.
#
#   cmake -DEXE=path/to/binary "-DARGS=--flag value" -P expect_cli_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'\n${err}")
endif()
string(REGEX MATCHALL "(^|\n)error: [^\n]+" lines "${err}")
list(LENGTH lines count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "expected one 'error:' line, got ${count}\n${err}")
endif()
