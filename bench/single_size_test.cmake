# CTest driver: `bench_e1_scaling_n --sizes 64 --trials 2` has one size, so
# no rounds-vs-log n fit exists. The binary must say so on its verdict line
# (SHAPE E1: SKIP) and exit with a nonzero status — not die on a signal.
execute_process(
  COMMAND ${BIN} --sizes 64 --trials 2
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
# An abort/signal shows up as a non-numeric result ("SIGABRT" etc.).
if(NOT rc MATCHES "^[0-9]+$")
  message(FATAL_ERROR "crashed (${rc}) instead of a clean SKIP:\n${out}${err}")
endif()
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a nonzero exit for a single size:\n${out}")
endif()
if(NOT out MATCHES "SHAPE E1: SKIP")
  message(FATAL_ERROR "stdout lacks 'SHAPE E1: SKIP':\n${out}${err}")
endif()
