# Driven by the cli_contract_* tests in tools/CMakeLists.txt: runs TOOL
# with ARGS and asserts the unified CLI contract shared by the tools,
# the examples and the bench harnesses.
#
# Input half: a bad invocation (unknown flag or command, malformed
# value, unreadable input) exits nonzero and prints the usage text plus
# a specific "error: ..." line to stderr.
#
# Output half: a requested output that cannot be written exits nonzero
# with "error: cannot write <path>" on stderr, never a warning beside
# exit 0. Drivers, gw-train and gw-fleet exit 1; gw-diff and gw-inspect
# exit 2 (gw-diff's 1 already means "regressed").
#
# RC, when set, is the exact exit code expected; RC 0 checks a run that
# succeeds with a diagnostic on stderr (a warning). Without RC any
# nonzero exit passes. NO_USAGE drops the usage check for failures past
# argument parsing. EXPECT is a regex stderr must match.
separate_arguments(ARGS)
execute_process(COMMAND ${TOOL} ${ARGS}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(DEFINED RC)
  if(NOT Rc EQUAL RC)
    message(FATAL_ERROR "${TOOL} ${ARGS}: expected exit ${RC}, got ${Rc}")
  endif()
elseif(Rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} ${ARGS}: expected a nonzero exit, got 0")
endif()
if(NOT NO_USAGE AND NOT Err MATCHES "usage:")
  message(FATAL_ERROR "${TOOL} ${ARGS}: no usage text on stderr; got: ${Err}")
endif()
if(DEFINED EXPECT AND NOT Err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr missing '${EXPECT}'; got: ${Err}")
endif()
