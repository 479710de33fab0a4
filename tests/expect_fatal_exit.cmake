# Runs one driver command that must fail on a user error, and checks
# that it exits with status exactly 1 and prints fatal()'s message
# (and no abort trace from std::terminate).
#
#   cmake -DCMD="<binary> <args...>" -DMESSAGE="<expected text>" \
#         -P expect_fatal_exit.cmake
separate_arguments(cmd UNIX_COMMAND "${CMD}")
execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "'${CMD}' exited with '${rc}', expected 1\n${err}")
endif()
string(FIND "${err}" "fatal: ${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "'${CMD}' did not print 'fatal: ${MESSAGE}':\n${err}")
endif()
string(FIND "${err}" "terminate called" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "'${CMD}' went through std::terminate:\n${err}")
endif()
