# ctest helper: run TOOL with ARGS (one space-separated string) and pass
# only if it exits 2, the command-line tools' usage exit.
#   cmake -DTOOL=<binary> "-DARGS=--depth -1" -P expect_usage_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${rc}, expected the usage exit 2")
endif()
