# ctest helper: run TOOL with ARGS (one space-separated string) and pass
# only if it exits 2, the command-line tools' usage exit, having printed
# nothing to stdout but the usage text: a usage error is reported before
# the tool does any work.
#   cmake -DTOOL=<binary> "-DARGS=--depth -1" -P expect_usage_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${rc}, expected the usage exit 2")
endif()
if(NOT out STREQUAL "" AND NOT out MATCHES "^usage:")
  message(FATAL_ERROR "${TOOL} ${ARGS}: printed output before its usage "
                      "exit:\n${out}")
endif()
