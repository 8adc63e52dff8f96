# WrtBenchSmoke: every workload for about a second (wrt_bench --smoke,
# traced so the invariant audit runs after every chunk), then a schema
# check of the BENCH_e2e.json it writes.  wrt_bench itself fails on an
# audit violation or a federation digest mismatch between W=1 and W>1.
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
execute_process(
  COMMAND "${BENCH}" --smoke --json-dir=${OUT} --trace=${OUT}/trace.json
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "wrt_bench --smoke failed: ${status}")
endif()
execute_process(
  COMMAND "${PYTHON}" "${VALIDATOR}" "${OUT}/BENCH_e2e.json"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "BENCH_e2e.json failed schema validation")
endif()
