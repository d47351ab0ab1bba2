# Runs CMD with ARGS ('|'-separated) and passes only when it exits 2 with a
# message on stderr naming FLAG: the contract for a rejected command-line
# or INI value. Usage:
#   cmake -DCMD=<exe> -DARGS=--flag|value -DFLAG=--flag -P expect_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${FLAG}:\n${err}")
endif()
