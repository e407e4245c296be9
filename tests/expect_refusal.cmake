# Runs PROG with ARGS (one space-separated string) and passes only if
# the program refuses: a nonzero exit and exactly one line on stderr
# that matches the regex EXPECT.
#
#   cmake -DPROG=... -DARGS="..." -DEXPECT="..." -P expect_refusal.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(status EQUAL 0)
    message(FATAL_ERROR "expected a refusal, got exit 0:\n${out}${err}")
endif()
if(NOT err MATCHES "^[^\n]*\n$")
    message(FATAL_ERROR "expected a one-line diagnostic, got:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "diagnostic does not match '${EXPECT}':\n${err}")
endif()
