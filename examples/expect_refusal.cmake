# Runs PROG with the ARG1..ARG3 that are given and fails unless it exits with
# STATUS (default 1) and its stderr matches EXPECT: a program must refuse bad
# input with a message, not abort.
#   cmake -DPROG=<exe> -DARG1=<a> [-DARG2=<b> [-DARG3=<c>]] [-DSTATUS=<n>]
#         -DEXPECT=<regex> -P expect_refusal.cmake
set(args)
foreach(var ARG1 ARG2 ARG3)
  if(DEFINED ${var})
    list(APPEND args "${${var}}")
  endif()
endforeach()
if(NOT DEFINED STATUS)
  set(STATUS 1)
endif()
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${STATUS}")
  message(FATAL_ERROR "expected exit status ${STATUS}, got '${status}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
