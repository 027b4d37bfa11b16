# Runs PROG with ARG1 and ARG2 and fails unless it exits with status 1 and
# its stderr matches EXPECT: a file-reading example must refuse bad input
# with a message, not abort.
#   cmake -DPROG=<exe> -DARG1=<a> -DARG2=<b> -DEXPECT=<regex> -P expect_refusal.cmake
execute_process(COMMAND "${PROG}" "${ARG1}" "${ARG2}"
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
