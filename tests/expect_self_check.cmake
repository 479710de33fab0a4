# Runs one driver's differential self-check and checks that it exits
# with status 0 and reports "self-check PASSED".
#
#   cmake -DCMD="<binary> --check <args...>" -P expect_self_check.cmake
separate_arguments(cmd UNIX_COMMAND "${CMD}")
execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "'${CMD}' exited with '${rc}', expected 0\n${err}")
endif()
string(FIND "${err}" "self-check PASSED" at)
if(at EQUAL -1)
  message(FATAL_ERROR "'${CMD}' did not print 'self-check PASSED':\n${err}")
endif()
