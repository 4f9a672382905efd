# bench_report contract: baseline append, clean re-check, regression
# detection with exit 3, and --report-only downgrading that to 0.
#
# Usage: cmake -DTOOL=<bench_report> -DWORK=<dir> -P bench_report_test.cmake

function(expect_rc rc want label)
  if(NOT rc EQUAL ${want})
    message(FATAL_ERROR "${label}: exited ${rc}, want ${want}")
  endif()
endfunction()

set(traj ${WORK}/bench_report_test_trajectory.jsonl)
file(REMOVE ${traj})

# Synthetic bench output: one higher-better and one lower-better metric,
# plus a directionless count that must never be compared.
file(WRITE ${WORK}/bench_report_good.json
  "{\"partitions_per_sec\": 100.0, \"gen_ns\": 50.0, \"tasks\": 30}\n")

# First run: no previous entry, appends the baseline, exits 0 even with
# --check (nothing to compare against).
execute_process(COMMAND ${TOOL} --in fake=${WORK}/bench_report_good.json
                --trajectory ${traj} --check --label baseline
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc(${rc} 0 "baseline run")
if(NOT out MATCHES "no previous entry")
  message(FATAL_ERROR "baseline run: expected baseline-only note: ${out}")
endif()
file(READ ${traj} entry)
foreach(field "\"ts\"" "\"git_sha\"" "\"compiler\"" "\"host\""
        "\"label\":\"baseline\"" "fake.partitions_per_sec")
  if(NOT entry MATCHES "${field}")
    message(FATAL_ERROR "trajectory entry missing ${field}: ${entry}")
  endif()
endforeach()

# Same numbers again: compared clean, appends a second entry.
execute_process(COMMAND ${TOOL} --in fake=${WORK}/bench_report_good.json
                --trajectory ${traj} --check
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc(${rc} 0 "clean re-check")
if(NOT out MATCHES "2 metric\\(s\\) compared, 0 regression\\(s\\)")
  message(FATAL_ERROR "clean re-check: unexpected report: ${out}")
endif()

# 50% worse in both directions (throughput halved, latency doubled):
# --check exits 3 and names both metrics, without appending (--no-append).
file(WRITE ${WORK}/bench_report_bad.json
  "{\"partitions_per_sec\": 50.0, \"gen_ns\": 100.0, \"tasks\": 30}\n")
execute_process(COMMAND ${TOOL} --in fake=${WORK}/bench_report_bad.json
                --trajectory ${traj} --check --no-append
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc(${rc} 3 "regression check")
if(NOT out MATCHES "REGRESSION fake.partitions_per_sec" OR
   NOT out MATCHES "REGRESSION fake.gen_ns")
  message(FATAL_ERROR "regression check: metrics not flagged: ${out}")
endif()

# --report-only: same regressions reported, but exit 0 for advisory CI.
execute_process(COMMAND ${TOOL} --in fake=${WORK}/bench_report_bad.json
                --trajectory ${traj} --check --no-append --report-only
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc(${rc} 0 "report-only")
if(NOT out MATCHES "REGRESSION")
  message(FATAL_ERROR "report-only: regressions not reported: ${out}")
endif()

# A generous tolerance accepts the same delta.
execute_process(COMMAND ${TOOL} --in fake=${WORK}/bench_report_bad.json
                --trajectory ${traj} --check --no-append --tolerance 1.5
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc(${rc} 0 "wide tolerance")

# Usage errors: no inputs at all, malformed --in.
execute_process(COMMAND ${TOOL} --trajectory ${traj}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
expect_rc(${rc} 2 "no inputs")
execute_process(COMMAND ${TOOL} --in nonsense
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
expect_rc(${rc} 2 "malformed --in")

# Runtime error: unreadable input file.
execute_process(COMMAND ${TOOL} --in fake=/no/such/bench.json
                --trajectory ${traj}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
expect_rc(${rc} 1 "missing input file")

# A malformed last trajectory line (truncated write, merge artifact) must
# not wedge --check: warn, treat as no baseline, exit 0, and the append
# repairs the trajectory with a fresh parseable entry.
set(traj_broken ${WORK}/bench_report_test_broken.jsonl)
file(WRITE ${traj_broken} "{\"ts\":\"t\",\"metrics\":{\"fake.gen_ns\"\n")
execute_process(COMMAND ${TOOL} --in fake=${WORK}/bench_report_good.json
                --trajectory ${traj_broken} --check
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc(${rc} 0 "malformed trajectory tolerated")
if(NOT err MATCHES "ignoring malformed last entry")
  message(FATAL_ERROR "malformed trajectory: missing warning: ${err}")
endif()
if(NOT out MATCHES "no previous entry")
  message(FATAL_ERROR "malformed trajectory: expected baseline-only: ${out}")
endif()
execute_process(COMMAND ${TOOL} --in fake=${WORK}/bench_report_good.json
                --trajectory ${traj_broken} --check --no-append
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc(${rc} 0 "recovered trajectory compares clean")
if(NOT out MATCHES "compared, 0 regression")
  message(FATAL_ERROR "recovered trajectory: no comparison ran: ${out}")
endif()

# An empty trajectory file is a clean no-baseline case, not an error.
set(traj_empty ${WORK}/bench_report_test_empty.jsonl)
file(WRITE ${traj_empty} "")
execute_process(COMMAND ${TOOL} --in fake=${WORK}/bench_report_good.json
                --trajectory ${traj_empty} --check --no-append
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc(${rc} 0 "empty trajectory")
if(NOT out MATCHES "no previous entry")
  message(FATAL_ERROR "empty trajectory: expected baseline-only: ${out}")
endif()

# Rows of different benches interleave in one trajectory: a regressed row
# of bench A is compared with A's previous row even when a row of another
# bench B sits in between (not with B's row, which shares no metric).
set(traj_mixed ${WORK}/bench_report_test_mixed.jsonl)
file(REMOVE ${traj_mixed})
file(WRITE ${WORK}/bench_report_other.json "{\"p99_ms\": 3.0}\n")
execute_process(COMMAND ${TOOL} --in fake=${WORK}/bench_report_good.json
                --trajectory ${traj_mixed}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
expect_rc(${rc} 0 "mixed: row A")
execute_process(COMMAND ${TOOL} --in other=${WORK}/bench_report_other.json
                --trajectory ${traj_mixed}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
expect_rc(${rc} 0 "mixed: row B")
execute_process(COMMAND ${TOOL} --in fake=${WORK}/bench_report_bad.json
                --trajectory ${traj_mixed} --check
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc(${rc} 3 "mixed: regressed row A after row B")
if(NOT out MATCHES "REGRESSION fake.partitions_per_sec" OR
   NOT out MATCHES "REGRESSION fake.gen_ns" OR
   NOT out MATCHES "2 metric\\(s\\) compared, 2 regression\\(s\\)")
  message(FATAL_ERROR "mixed: regression behind another bench's row missed: ${out}")
endif()

message(STATUS "bench_report contract holds")
