# Runs one driver at jobs=1 and at jobs=N and checks that both exit
# with status 0 and print byte-identical stdout: the sweep engine's
# dealing order and run memo must never show in a driver's output.
#
#   cmake -DCMD="<binary> <args...>" -DJOBS=N -P expect_jobs_identity.cmake
separate_arguments(cmd UNIX_COMMAND "${CMD}")
foreach(jobs 1 ${JOBS})
  execute_process(COMMAND ${cmd} jobs=${jobs}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out_${jobs}
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR
            "'${CMD} jobs=${jobs}' exited with '${rc}', expected 0\n${err}")
  endif()
endforeach()
if(NOT out_1 STREQUAL out_${JOBS})
  message(FATAL_ERROR "'${CMD}' prints different output at jobs=1 and "
                      "jobs=${JOBS}:\n--- jobs=1\n${out_1}\n"
                      "--- jobs=${JOBS}\n${out_${JOBS}}")
endif()
