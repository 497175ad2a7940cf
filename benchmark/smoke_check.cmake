# Smoke check of one workload: run it at --smoke size and hold its result
# line to the contract BENCHMARK.json describes.
#
#   cmake -DBENCH=cvewb-bench -DSPEC=BENCHMARK.json -DWORKLOAD=study_batch \
#         -DTRACE=0 -DWORK_DIR=dir -P smoke_check.cmake
execute_process(
  COMMAND ${BENCH} run --workload ${WORKLOAD} --seed 7 --seconds 1 --trace ${TRACE} --smoke
          --work-dir ${WORK_DIR}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${WORKLOAD}: exit status ${rc} (a correctness check failed?)\n${out}\n${err}")
endif()

string(STRIP "${out}" out)
string(REGEX REPLACE "^.*\n" "" result "${out}")
string(JSON keys ERROR_VARIABLE json_error LENGTH "${result}")
if(json_error OR NOT keys EQUAL 4)
  message(FATAL_ERROR "${WORKLOAD}: last line is not the 4-key result object: ${result}")
endif()
string(JSON correct GET "${result}" correct)
string(JSON attempted GET "${result}" attempted)
string(JSON failed GET "${result}" failed)
if(NOT correct STREQUAL "ON" OR NOT attempted MATCHES "^[1-9][0-9]*$" OR NOT failed STREQUAL "0")
  message(FATAL_ERROR "${WORKLOAD}: correct=${correct} attempted=${attempted} failed=${failed}")
endif()

# The metric set must be exactly the list BENCHMARK.json names for this
# mode, with matching units; end-to-end values are never 0.
file(READ ${SPEC} spec)
if(TRACE)
  set(list per_layer)
else()
  set(list end_to_end)
endif()
string(JSON expected LENGTH "${spec}" ${list})
string(JSON printed LENGTH "${result}" metrics)
if(NOT expected EQUAL printed)
  message(FATAL_ERROR "${WORKLOAD}: printed ${printed} metrics, BENCHMARK.json lists ${expected}")
endif()
math(EXPR last "${expected} - 1")
foreach(i RANGE ${last})
  string(JSON name GET "${spec}" ${list} ${i} name)
  string(JSON unit GET "${spec}" ${list} ${i} unit)
  string(JSON got_unit ERROR_VARIABLE missing GET "${result}" metrics ${name} unit)
  if(missing OR NOT got_unit STREQUAL unit)
    message(FATAL_ERROR "${WORKLOAD}: metric ${name} missing or not in ${unit}")
  endif()
  string(JSON value GET "${result}" metrics ${name} value)
  if(NOT TRACE AND value MATCHES "^-?0(\\.0*)?$")
    message(FATAL_ERROR "${WORKLOAD}: end-to-end metric ${name} is 0")
  endif()
endforeach()
message(STATUS "${WORKLOAD} trace=${TRACE}: ${printed} metrics, attempted ${attempted}")
