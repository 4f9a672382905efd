# CLI exit-code contract: 0 = success, 1 = runtime failure (message
# only, no usage banner), 2 = usage error (message + banner).
#
# Usage: cmake -DCLI=<prcost> -DWORK=<dir> -P exit_codes_test.cmake

function(expect_rc rc want label)
  if(NOT rc EQUAL ${want})
    message(FATAL_ERROR "${label}: exited ${rc}, want ${want}")
  endif()
endfunction()

# No command: usage error with banner.
execute_process(COMMAND ${CLI} RESULT_VARIABLE rc ERROR_VARIABLE err
                OUTPUT_QUIET)
expect_rc(${rc} 2 "bare invocation")
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "bare invocation: banner missing: ${err}")
endif()

# Unknown command: usage error with banner.
execute_process(COMMAND ${CLI} frobnicate RESULT_VARIABLE rc
                ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc(${rc} 2 "unknown command")
if(NOT err MATCHES "unknown command" OR NOT err MATCHES "usage:")
  message(FATAL_ERROR "unknown command: bad diagnostics: ${err}")
endif()

# Missing required flag: usage error.
execute_process(COMMAND ${CLI} plan fir RESULT_VARIABLE rc
                ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc(${rc} 2 "plan without --device")

# Malformed --workers value: usage error carrying the parse failure.
execute_process(COMMAND ${CLI} explore --device xc6vlx240t fir sdram
                --workers 3x RESULT_VARIABLE rc ERROR_VARIABLE err
                OUTPUT_QUIET)
expect_rc(${rc} 2 "malformed --workers")
if(NOT err MATCHES "--workers" OR NOT err MATCHES "3x")
  message(FATAL_ERROR "malformed --workers: error not surfaced: ${err}")
endif()

# Unknown device: runtime failure - message, no banner.
execute_process(COMMAND ${CLI} plan fir --device bogus RESULT_VARIABLE rc
                ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc(${rc} 1 "unknown device")
if(NOT err MATCHES "unknown device 'bogus'" OR err MATCHES "usage:")
  message(FATAL_ERROR "unknown device: bad diagnostics: ${err}")
endif()

# A fleet-less optimize is a usage error even on an unknown device: the
# request's shape is checked before the device is resolved.
execute_process(COMMAND ${CLI} optimize --device bogus RESULT_VARIABLE rc
                ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc(${rc} 2 "optimize without a fleet")
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "optimize without a fleet: banner missing: ${err}")
endif()

# Unreadable batch input: runtime failure.
execute_process(COMMAND ${CLI} batch /no/such/file.jsonl RESULT_VARIABLE rc
                ERROR_VARIABLE err OUTPUT_QUIET)
expect_rc(${rc} 1 "missing batch file")
if(err MATCHES "usage:")
  message(FATAL_ERROR "missing batch file: should not print banner: ${err}")
endif()

# An -o path that cannot be written: runtime failure naming the path, and
# no "wrote" line claiming success.
foreach(cmd "bitstream;fir;--device;xc5vlx110t;-o;/nonexistent/dir/x.bit"
            "synth;fir;-o;/nonexistent/x.srp"
            "netlist;fir;-o;/nonexistent/x.net")
  string(REPLACE ";" " " label "unwritable -o (${cmd})")
  execute_process(COMMAND ${CLI} ${cmd} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  expect_rc(${rc} 1 "${label}")
  if(NOT err MATCHES "cannot write output file '/nonexistent/" OR
     out MATCHES "wrote" OR err MATCHES "usage:")
    message(FATAL_ERROR "${label}: bad diagnostics: ${out}${err}")
  endif()
endforeach()

# --dump-trace writes the arrival stream of a run that succeeded: a
# workload the run rejects (an unknown name, or "trace" with no trace
# text) is a usage error that leaves no file and no "wrote" line.
set(dump ${WORK}/exit_codes_dump.jsonl)
foreach(workload bogus trace)
  set(label "schedule --workload ${workload} --dump-trace")
  file(REMOVE ${dump})
  execute_process(COMMAND ${CLI} schedule fir uart --device xc5vlx110t
                  --workload ${workload} --dump-trace ${dump}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
  expect_rc(${rc} 2 "${label}")
  if(EXISTS ${dump} OR out MATCHES "wrote")
    message(FATAL_ERROR "${label}: wrote a trace the run rejected: ${out}")
  endif()
endforeach()

# Infeasible plan: runtime failure, verdict on stdout.
execute_process(COMMAND ${CLI} plan matmul --device xc5vlx110t
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
expect_rc(${rc} 1 "infeasible plan")
if(NOT out MATCHES "no feasible PRR")
  message(FATAL_ERROR "infeasible plan: verdict missing: ${out}")
endif()

# A netlist macro past the mapper's primitive ceiling: a prompt parse
# failure naming the cell, not an unbounded expansion. The timeouts turn
# a hang into a failure.
set(huge_mul ${WORK}/exit_codes_huge_mul.net)
file(WRITE ${huge_mul}
  "netlist t\ncell MUL m 99999999999 99999999999 | | p\n")
execute_process(COMMAND ${CLI} plan --device xc6vlx240t --netlist
                ${huge_mul} RESULT_VARIABLE rc ERROR_VARIABLE err
                OUTPUT_QUIET TIMEOUT 20)
expect_rc(${rc} 1 "plan on a huge MUL netlist")
if(NOT err MATCHES "cell 'm'" OR err MATCHES "usage:")
  message(FATAL_ERROR "plan on a huge MUL netlist: bad diagnostics: ${err}")
endif()
# synth reads netlist files only through the request wire.
set(huge_mul_batch ${WORK}/exit_codes_huge_mul.jsonl)
file(WRITE ${huge_mul_batch}
  "{\"op\":\"synth\",\"netlist\":\"${huge_mul}\"}\n")
execute_process(COMMAND ${CLI} batch ${huge_mul_batch} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_QUIET TIMEOUT 20)
if(NOT out MATCHES "\"code\":\"parse\"" OR NOT out MATCHES "cell 'm'")
  message(FATAL_ERROR "synth on a huge MUL netlist: bad response: ${out}")
endif()

# Netlist lines synthesis cannot take are parse failures naming the cell:
# an FF without its D pin (synthesis reads pin 0) and a zero-width MUL
# (the mapper sizes it from its widths).
set(no_d_ff ${WORK}/exit_codes_no_d_ff.net)
file(WRITE ${no_d_ff}
  "netlist t\ncell FF f 0 0 | | q\ncell OUTPUT o 0 0 | q |\n")
execute_process(COMMAND ${CLI} plan --device xc6vlx240t --netlist
                ${no_d_ff} RESULT_VARIABLE rc ERROR_VARIABLE err
                OUTPUT_QUIET TIMEOUT 20)
expect_rc(${rc} 1 "plan on an FF without inputs")
if(NOT err MATCHES "cell 'f' \\(FF\\)" OR err MATCHES "usage:")
  message(FATAL_ERROR "plan on an FF without inputs: bad diagnostics: ${err}")
endif()
set(zero_mul ${WORK}/exit_codes_zero_mul.net)
file(WRITE ${zero_mul} "netlist t\ncell MUL m 0 5 | | q\n")
execute_process(COMMAND ${CLI} plan --device xc6vlx240t --netlist
                ${zero_mul} RESULT_VARIABLE rc ERROR_VARIABLE err
                OUTPUT_QUIET TIMEOUT 20)
expect_rc(${rc} 1 "plan on a zero-width MUL")
if(NOT err MATCHES "cell 'm' \\(MUL\\)" OR err MATCHES "usage:")
  message(FATAL_ERROR "plan on a zero-width MUL: bad diagnostics: ${err}")
endif()
set(bad_netlists_batch ${WORK}/exit_codes_bad_netlists.jsonl)
file(WRITE ${bad_netlists_batch}
  "{\"op\":\"synth\",\"netlist\":\"${no_d_ff}\"}\n"
  "{\"op\":\"synth\",\"netlist\":\"${zero_mul}\"}\n")
execute_process(COMMAND ${CLI} batch ${bad_netlists_batch} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_QUIET TIMEOUT 20)
string(REGEX MATCHALL "\"code\":\"parse\"" parse_codes "${out}")
list(LENGTH parse_codes parse_count)
if(NOT parse_count EQUAL 2 OR out MATCHES "\"code\":\"contract\"")
  message(FATAL_ERROR "synth on bad netlists: want two parse codes: ${out}")
endif()

message(STATUS "exit-code contract holds")
