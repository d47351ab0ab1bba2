# Runs CMD (its arguments '|'-separated) and passes only when it exits 0 and
# its stdout equals the committed GOLDEN file byte for byte. On a mismatch
# the actual output is left in ACTUAL for diffing. With MG_BLESS=1 in the
# environment it rewrites GOLDEN instead (tests/golden/bless.sh). Usage:
#   cmake -DCMD=<exe>|<arg>... -DGOLDEN=<file> -DACTUAL=<file> -P golden_check.cmake
string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 300)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "command exited '${rc}'\nstderr:\n${err}")
endif()
if("$ENV{MG_BLESS}" STREQUAL "1")
  file(WRITE "${GOLDEN}" "${out}")
  message(STATUS "blessed ${GOLDEN}")
  return()
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR "stdout differs from the golden: diff ${GOLDEN} ${ACTUAL}")
endif()
