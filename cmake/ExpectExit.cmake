# ctest helper: runs CMD with the space-separated ARGS and fails unless
# it exits with status EXPECT.
#
#   add_test(NAME ... COMMAND ${CMAKE_COMMAND} -DCMD=<exe> "-DARGS=a b"
#            -DEXPECT=2 -P ${PROJECT_SOURCE_DIR}/cmake/ExpectExit.cmake)
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR
    "${CMD} ${ARGS}: exit ${rc}, expected ${EXPECT}\n${out}${err}")
endif()
