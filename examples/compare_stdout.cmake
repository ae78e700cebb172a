# Runs PROGRAM with ARGS and fails unless its stdout equals the file
# EXPECTED byte for byte. stderr is passed through and not compared.
#
#   cmake -DPROGRAM=<exe> -DARGS=<args> -DEXPECTED=<file> -P compare_stdout.cmake
execute_process(
  COMMAND ${PROGRAM} ${ARGS}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${exit_code}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "stdout of ${PROGRAM} ${ARGS} differs from ${EXPECTED}; it printed:\n"
    "${actual}")
endif()
