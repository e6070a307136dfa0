# Driven by the cli_contract_* tests in tools/CMakeLists.txt: runs TOOL
# with ARGS and asserts the unified CLI error contract shared by the
# tools, the examples and the bench harnesses — a bad invocation
# (unknown flag or command, malformed value, unreadable input) exits
# nonzero and prints the usage text plus a specific "error: ..." line
# to stderr. RC, when set, is the exact exit code expected; NO_USAGE
# drops the usage check for failures past argument parsing.
separate_arguments(ARGS)
execute_process(COMMAND ${TOOL} ${ARGS}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(Rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} ${ARGS}: expected a nonzero exit, got 0")
endif()
if(DEFINED RC AND NOT Rc EQUAL RC)
  message(FATAL_ERROR "${TOOL} ${ARGS}: expected exit ${RC}, got ${Rc}")
endif()
if(NOT NO_USAGE AND NOT Err MATCHES "usage:")
  message(FATAL_ERROR "${TOOL} ${ARGS}: no usage text on stderr; got: ${Err}")
endif()
if(DEFINED EXPECT AND NOT Err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr missing '${EXPECT}'; got: ${Err}")
endif()
