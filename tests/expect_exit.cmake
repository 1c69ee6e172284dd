# Runs EXE with ARGS and fails unless it exits with status WANT within
# 10 seconds.
#
#   cmake -DEXE=path -DARGS=a;b -DWANT=2 -P expect_exit.cmake
execute_process(COMMAND ${EXE} ${ARGS} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 10)
if(NOT rc STREQUAL "${WANT}")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit '${rc}', want ${WANT}\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
message(STATUS "${EXE} ${ARGS}: exit ${rc}: ${err}")
